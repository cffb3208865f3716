// Self-test of the sariadne-analyze pass library: each pass is driven
// against committed fixture mini-repos under tests/fixtures/analyze/
// with seeded violations (positive cases assert exact file:line) and
// clean/suppressed twins (negative cases assert zero findings), plus the
// static-vs-runtime lock-rank cross-check and a zero-findings gate over
// the real repo. The fixture trees live under a directory named
// "fixtures", which load_repo skips when scanning the real repo — the
// seeded violations never count against HEAD.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/callgraph.hpp"
#include "analyze/model.hpp"
#include "analyze/passes.hpp"

namespace analyze = sariadne::analyze;

namespace {

analyze::Repo fixture_repo(const std::string& name) {
    return analyze::load_repo(std::string(SARIADNE_FIXTURE_DIR) + "/" + name);
}

std::map<std::string, int> count_by_rule(
    const std::vector<analyze::Finding>& findings) {
    std::map<std::string, int> counts;
    for (const analyze::Finding& f : findings) ++counts[f.rule];
    return counts;
}

bool has_finding(const std::vector<analyze::Finding>& findings,
                 const std::string& file, std::size_t line,
                 const std::string& rule) {
    return std::any_of(findings.begin(), findings.end(),
                       [&](const analyze::Finding& f) {
                           return f.file == file && f.line == line &&
                                  f.rule == rule;
                       });
}

std::string dump(const std::vector<analyze::Finding>& findings) {
    std::string out;
    for (const analyze::Finding& f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
               f.message + "\n";
    }
    return out;
}

const analyze::Repo& real_repo() {
    static const analyze::Repo repo = analyze::load_repo(SARIADNE_REPO_ROOT);
    return repo;
}

const analyze::FunctionIndex& real_index() {
    static const analyze::FunctionIndex index =
        analyze::build_function_index(real_repo());
    return index;
}

// --- layer pass -----------------------------------------------------------

TEST(LayerPass, FlagsUpwardDuplicateAndCyclicIncludes) {
    const analyze::Repo repo = fixture_repo("layering_bad");
    const std::vector<analyze::Finding> findings =
        analyze::run_layer_pass(repo);
    const std::map<std::string, int> counts = count_by_rule(findings);
    EXPECT_EQ(counts.at("layer-order"), 2) << dump(findings);
    EXPECT_EQ(counts.at("include-duplicate"), 1) << dump(findings);
    EXPECT_EQ(counts.at("include-cycle"), 1) << dump(findings);
    // The upward include is reported at its exact line.
    EXPECT_TRUE(has_finding(findings, "src/support/helper.hpp", 2,
                            "layer-order"))
        << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/support/helper.hpp", 3,
                            "include-duplicate"))
        << dump(findings);
}

TEST(LayerPass, DownwardAndSuppressedIncludesAreClean) {
    const analyze::Repo repo = fixture_repo("layering_good");
    const std::vector<analyze::Finding> findings =
        analyze::run_layer_pass(repo);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

// --- lock pass ------------------------------------------------------------

TEST(LockPass, FlagsInvertedPairDirectlyAndThroughACall) {
    const analyze::Repo repo = fixture_repo("lockorder_bad");
    const analyze::FunctionIndex index = analyze::build_function_index(repo);
    const std::vector<analyze::Finding> findings =
        analyze::run_lock_pass(repo, index);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    // Direct inversion: kTaxonomyCache (60) held, kDagShard (40) acquired.
    EXPECT_TRUE(has_finding(findings, "src/directory/shard.cpp", 16,
                            "lock-order"))
        << dump(findings);
    // Same inversion one call deep: the finding lands on the call site.
    EXPECT_TRUE(has_finding(findings, "src/directory/shard.cpp", 7,
                            "lock-order"))
        << dump(findings);
}

TEST(LockPass, AscendingAndSuppressedAcquisitionsAreClean) {
    const analyze::Repo repo = fixture_repo("lockorder_good");
    const analyze::FunctionIndex index = analyze::build_function_index(repo);
    const std::vector<analyze::Finding> findings =
        analyze::run_lock_pass(repo, index);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(LockPass, StaticRankTableMatchesRuntimeConstants) {
    std::vector<std::pair<std::string, int>> runtime =
        analyze::parse_runtime_lock_ranks(real_repo());
    std::vector<std::pair<std::string, int>> expected =
        analyze::static_lock_ranks();
    ASSERT_FALSE(runtime.empty())
        << "src/support/lock_rank.hpp not found or unparseable";
    std::sort(runtime.begin(), runtime.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(runtime, expected)
        << "update static_lock_ranks() in tools/analyze/pass_locks.cpp "
           "together with enum class LockRank";
}

// --- hot-path pass --------------------------------------------------------

TEST(HotPathPass, FlagsAllocationTwoCallsDeepAndDirectThrow) {
    const analyze::Repo repo = fixture_repo("hotpath_bad");
    const analyze::FunctionIndex index = analyze::build_function_index(repo);
    const std::vector<analyze::Finding> findings =
        analyze::run_hotpath_pass(repo, index);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    // match_kernel -> deep_helper -> deeper_helper allocates a std::string;
    // the finding lands on the allocation, two calls below the entry.
    EXPECT_TRUE(has_finding(findings, "src/matching/helpers.hpp", 7,
                            "hot-path-flow"))
        << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/matching/kernel.hpp", 12,
                            "hot-path-flow"))
        << dump(findings);
}

TEST(HotPathPass, ReaderLocksAndSuppressedAllocationsAreClean) {
    const analyze::Repo repo = fixture_repo("hotpath_good");
    const analyze::FunctionIndex index = analyze::build_function_index(repo);
    const std::vector<analyze::Finding> findings =
        analyze::run_hotpath_pass(repo, index);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

// --- rules pass -----------------------------------------------------------

TEST(RulesPass, FlagsDecodersMissingNoexcept) {
    const analyze::Repo repo = fixture_repo("noexcept_bad");
    const std::vector<analyze::Finding> findings =
        analyze::run_rules_pass(repo);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    // Both the Result-returning and the optional-returning decoder.
    EXPECT_TRUE(has_finding(findings, "src/ariadne/codec.hpp", 17,
                            "wire-decode-noexcept"))
        << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/ariadne/codec.hpp", 18,
                            "wire-decode-noexcept"))
        << dump(findings);
}

TEST(RulesPass, NoexceptMarkedDecodeSurfaceIsClean) {
    const analyze::Repo repo = fixture_repo("noexcept_good");
    const std::vector<analyze::Finding> findings =
        analyze::run_rules_pass(repo);
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(RulesPass, LineNumbersSurviveBlockCommentsAndStringSplices) {
    // Regression pin for the lint_sariadne line-number bug: a multi-line
    // block comment and a backslash-newline splice inside a string literal
    // precede the violation; the finding must still land on its raw line.
    const analyze::Repo repo = fixture_repo("linenum");
    const std::vector<analyze::Finding> findings =
        analyze::run_rules_pass(repo);
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/support/tricky.hpp", 11,
                            "naked-mutex"))
        << dump(findings);
}

TEST(RulesPass, FlagsMetricNameLiterals) {
    const analyze::Repo repo = fixture_repo("rules_bad");
    const std::vector<analyze::Finding> findings =
        analyze::run_rules_pass(repo);
    EXPECT_EQ(count_by_rule(findings)["metric-name"], 1) << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/obs/use.cpp", 4, "metric-name"))
        << dump(findings);
}

TEST(RulesPass, FlagsMetricNamesNoOtherSourceNames) {
    // The fixture table declares two names; use.cpp names only the first.
    const analyze::Repo repo = fixture_repo("rules_bad");
    const std::vector<analyze::Finding> findings =
        analyze::run_rules_pass(repo);
    ASSERT_EQ(findings.size(), 2u) << dump(findings);
    EXPECT_TRUE(has_finding(findings, "src/obs/metric_names.hpp", 7,
                            "metric-name-unused"))
        << dump(findings);
}

// --- whole-repo gate ------------------------------------------------------

TEST(Repo, FixtureTreesAreExcludedFromTheRealScan) {
    EXPECT_EQ(real_repo().find("tests/fixtures/analyze/linenum/src/support/"
                               "tricky.hpp"),
              nullptr);
    ASSERT_NE(real_repo().find("src/support/lock_rank.hpp"), nullptr);
}

TEST(Repo, AllPassesCleanAtHead) {
    EXPECT_TRUE(analyze::run_rules_pass(real_repo()).empty())
        << dump(analyze::run_rules_pass(real_repo()));
    EXPECT_TRUE(analyze::run_layer_pass(real_repo()).empty())
        << dump(analyze::run_layer_pass(real_repo()));
    EXPECT_TRUE(analyze::run_lock_pass(real_repo(), real_index()).empty())
        << dump(analyze::run_lock_pass(real_repo(), real_index()));
    EXPECT_TRUE(analyze::run_hotpath_pass(real_repo(), real_index()).empty())
        << dump(analyze::run_hotpath_pass(real_repo(), real_index()));
}

}  // namespace
