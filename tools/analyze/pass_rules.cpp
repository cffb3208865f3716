// Per-file repo rules, carried over from the original lint_sariadne:
//
//   1. naked-mutex:   no std::mutex / std::shared_mutex outside
//                     support/lock_rank.hpp — product mutexes are
//                     rank-annotated. `lint:allow-naked-mutex(<reason>)`.
//   2. metric-name:   no quoted metric-name literal passed to
//                     counter(/gauge(/histogram( under src/.
//   3. wire-decode:   a `lint:wire-decode` file must not contain `throw`.
//   4. hot-path:      a `lint:hot-path` file must not name std::vector /
//                     std::string. `lint:allow-hot-path-alloc(<reason>)`.
//   5. fuzz-coverage: every try_decode* under src/ lives in a marked file
//                     and is exercised by a fuzz/*.cpp harness.
//   6. fuzz-corpus:   every fuzz target ships non-empty seeds.
//   7. wire-decode-noexcept (new): every Result-returning
//                     try_decode*/try_parse*/try_deserialize* declaration
//                     or definition under src/ is marked noexcept — the
//                     decode surface promises "malformed bytes never
//                     unwind", and noexcept makes the promise a contract.
//   8. metric-name-unused: every `k…` constant of
//                     src/obs/metric_names.hpp is named as `names::k…` by
//                     some other file under src/ — a name nothing
//                     registers is a dead series in the exposition table.
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analyze/passes.hpp"

namespace sariadne::analyze {

namespace {

bool is_ident_start(char c) {
    return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// The analyzer's own sources (and its test) spell the lint markers and
/// rule tokens in literals, exactly like the old linter did — exempt them
/// by path rather than contorting every pattern.
bool is_analyzer_source(const SourceFile& file) {
    return file.rel.rfind("tools/analyze/", 0) == 0 ||
           file.rel == "tools/sariadne_analyze.cpp" ||
           file.rel == "tests/lint_test.cpp";
}

void check_naked_mutex(const SourceFile& file, std::vector<Finding>& out) {
    if (file.path.filename() == "lock_rank.hpp") return;  // the wrapper
    static const std::regex naked(
        R"(\bstd::(recursive_)?(timed_)?(shared_)?mutex\b)");
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
        if (!std::regex_search(file.code_lines[i], naked)) continue;
        if (file.suppressed(i + 1, "lint:allow-naked-mutex")) continue;
        out.push_back({file.rel, i + 1, "naked-mutex",
                       "std::mutex outside support/lock_rank.hpp — use "
                       "RankedMutex/RankedSharedMutex or add "
                       "lint:allow-naked-mutex(<reason>)"});
    }
}

void check_metric_names(const SourceFile& file, std::vector<Finding>& out) {
    if (file.path.filename() == "metric_names.hpp") return;  // the table
    static const std::regex literal(
        R"(\b(counter|gauge|histogram)\s*\(\s*")");
    const std::vector<std::string> lines =
        split_lines(file.code_with_strings);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], literal)) {
            out.push_back({file.rel, i + 1, "metric-name",
                           "metric-name literal bypasses "
                           "obs/metric_names.hpp — add the name to the "
                           "table and reference the constant"});
        }
    }
}

void check_wire_decode(const SourceFile& file, std::vector<Finding>& out) {
    if (!file.marked("lint:wire-decode")) return;
    static const std::regex throw_token(R"(\bthrow\b)");
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
        if (std::regex_search(file.code_lines[i], throw_token)) {
            out.push_back({file.rel, i + 1, "wire-decode",
                           "`throw` in a lint:wire-decode file — decode "
                           "paths report failures through Result"});
        }
    }
}

void check_hot_path(const SourceFile& file, std::vector<Finding>& out) {
    if (!file.marked("lint:hot-path")) return;
    static const std::regex allocating(
        R"(\bstd::vector\s*<|\bstd::string\b)");
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
        if (!std::regex_search(file.code_lines[i], allocating)) continue;
        if (file.suppressed(i + 1, "lint:allow-hot-path-alloc")) continue;
        out.push_back(
            {file.rel, i + 1, "hot-path",
             "std::vector/std::string in a lint:hot-path file — use the "
             "query Arena (ArenaVec/ArenaBitset) or add "
             "lint:allow-hot-path-alloc(<reason>)"});
    }
}

void check_metric_names_used(const Repo& repo, std::vector<Finding>& out) {
    const SourceFile* table = repo.find("src/obs/metric_names.hpp");
    if (table == nullptr) return;
    // Qualified uses only: a bare identifier can be another enum's
    // constant (LockRank::kDirectoryServices shares a metric's name).
    static const std::regex use(R"(\bnames\s*::\s*(k\w+))");
    std::set<std::string> named;
    for (const SourceFile& file : repo.files) {
        if (file.top != "src" || &file == table) continue;
        for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                            use);
             it != std::sregex_iterator(); ++it) {
            named.insert((*it)[1].str());
        }
    }
    static const std::regex constant(R"(\bconstexpr\b.*\b(k[A-Z]\w*)\s*=)");
    for (std::size_t i = 0; i < table->code_lines.size(); ++i) {
        std::smatch match;
        if (!std::regex_search(table->code_lines[i], match, constant)) continue;
        if (named.count(match[1].str()) != 0) continue;
        out.push_back({table->rel, i + 1, "metric-name-unused",
                       "metric name `" + match[1].str() +
                           "` is named by no other file under src/ — "
                           "delete it or register the metric"});
    }
}

struct DecoderSite {
    std::string name;
    std::size_t file;
    std::size_t line;
    bool has_noexcept;
};

/// Finds `Result<...> [Class::]try_(decode|parse|deserialize)*(...)`
/// declarations and definitions on the flattened text, so multi-line
/// signatures are seen too. Call sites never carry the Result return
/// type, so this matches the decoder surface itself.
std::vector<DecoderSite> collect_decoder_sites(const Repo& repo,
                                               std::size_t fi) {
    const SourceFile& file = repo.files[fi];
    const std::string& s = file.code;
    std::vector<DecoderSite> sites;
    static const std::vector<std::string> kPrefixes = {
        "try_decode", "try_parse", "try_deserialize"};
    for (const std::string& prefix : kPrefixes) {
        std::size_t pos = 0;
        while ((pos = s.find(prefix, pos)) != std::string::npos) {
            const std::size_t name_begin = pos;
            pos += prefix.size();
            if (name_begin > 0 && is_ident_char(s[name_begin - 1])) continue;
            std::size_t name_end = name_begin;
            while (name_end < s.size() && is_ident_char(s[name_end])) {
                ++name_end;
            }
            std::size_t k = name_end;
            while (k < s.size() &&
                   std::isspace(static_cast<unsigned char>(s[k])) != 0) {
                ++k;
            }
            if (k >= s.size() || s[k] != '(') continue;
            // Walk backwards over an optional `Class::` qualifier chain,
            // then require a `Result<...>` return type.
            std::size_t p = name_begin;
            for (;;) {
                std::size_t q = p;
                while (q > 0 && std::isspace(
                                    static_cast<unsigned char>(s[q - 1])) != 0) {
                    --q;
                }
                if (q >= 2 && s[q - 1] == ':' && s[q - 2] == ':') {
                    std::size_t w = q - 2;
                    while (w > 0 && is_ident_char(s[w - 1])) --w;
                    if (w == q - 2) break;
                    p = w;
                    continue;
                }
                p = q;
                break;
            }
            if (p == 0 || s[p - 1] != '>') continue;
            int depth = 0;
            std::size_t lt = p - 1;
            while (lt != static_cast<std::size_t>(-1)) {
                if (s[lt] == '>') ++depth;
                if (s[lt] == '<' && --depth == 0) break;
                --lt;
            }
            if (lt == static_cast<std::size_t>(-1) || lt == 0) continue;
            std::size_t rt_end = lt;
            std::size_t rt_begin = rt_end;
            while (rt_begin > 0 && is_ident_char(s[rt_begin - 1])) --rt_begin;
            const std::string rt = s.substr(rt_begin, rt_end - rt_begin);
            // `Result<T>` is the canonical failure channel; Bloom's
            // try_deserialize predates Result and returns optional<T>.
            if (rt != "Result" && rt != "optional") continue;
            // Match the parameter list and look for `noexcept` before the
            // terminating '{' or ';'.
            int paren = 0;
            std::size_t close = std::string::npos;
            for (std::size_t j = k; j < s.size(); ++j) {
                if (s[j] == '(') ++paren;
                if (s[j] == ')' && --paren == 0) {
                    close = j;
                    break;
                }
            }
            if (close == std::string::npos) continue;
            bool has_noexcept = false;
            for (std::size_t j = close + 1; j < s.size(); ++j) {
                if (s[j] == '{' || s[j] == ';') break;
                if (is_ident_start(s[j]) &&
                    (j == 0 || !is_ident_char(s[j - 1]))) {
                    std::size_t e = j;
                    while (e < s.size() && is_ident_char(s[e])) ++e;
                    if (s.substr(j, e - j) == "noexcept") {
                        has_noexcept = true;
                        break;
                    }
                    j = e - 1;
                }
            }
            sites.push_back({s.substr(name_begin, name_end - name_begin), fi,
                             file.line_of(name_begin), has_noexcept});
        }
    }
    return sites;
}

}  // namespace

std::vector<Finding> run_rules_pass(const Repo& repo) {
    std::vector<Finding> findings;
    std::vector<DecoderSite> decoders;       // try_decode* in src .cpp files
    std::string fuzz_sources;                // concatenated fuzz/*.cpp

    for (std::size_t fi = 0; fi < repo.files.size(); ++fi) {
        const SourceFile& file = repo.files[fi];
        if (is_analyzer_source(file)) continue;
        check_naked_mutex(file, findings);
        if (file.top == "src") check_metric_names(file, findings);
        check_wire_decode(file, findings);
        check_hot_path(file, findings);
        if (file.top == "fuzz") {
            fuzz_sources += file.code;
            fuzz_sources += '\n';
        }
        if (file.top != "src") continue;

        const std::vector<DecoderSite> sites = collect_decoder_sites(repo, fi);
        const std::string ext = file.path.extension().string();
        const bool is_tu = ext == ".cpp" || ext == ".cc";
        bool defines_try_decode = false;
        for (const DecoderSite& site : sites) {
            // Rule 7: the whole decode surface (headers included) is
            // noexcept — decls and definitions both.
            if (!site.has_noexcept) {
                findings.push_back(
                    {file.rel, site.line, "wire-decode-noexcept",
                     "decoder `" + site.name +
                         "` is not marked noexcept — the try_* decode "
                         "surface returns Result and must not throw"});
            }
            if (is_tu && site.name.rfind("try_decode", 0) == 0) {
                defines_try_decode = true;
                decoders.push_back(site);
            }
        }
        if (defines_try_decode && !file.marked("lint:wire-decode")) {
            findings.push_back({file.rel, 1, "fuzz-coverage",
                                "file defines a try_decode* wire decoder "
                                "but lacks the lint:wire-decode marker"});
        }
    }

    check_metric_names_used(repo, findings);

    // Rule 5: every src/ wire decoder must be named by a fuzz harness.
    for (const DecoderSite& decoder : decoders) {
        const std::regex named(R"(\b)" + decoder.name + R"(\b)");
        if (!std::regex_search(fuzz_sources, named)) {
            findings.push_back(
                {repo.files[decoder.file].rel, decoder.line, "fuzz-coverage",
                 "wire decoder `" + decoder.name +
                     "` is not exercised by any fuzz/*.cpp harness"});
        }
    }

    // Rule 6: every fuzz target ships committed seeds.
    const fs::path fuzz_dir = repo.root / "fuzz";
    if (fs::is_directory(fuzz_dir)) {
        for (const auto& entry : fs::directory_iterator(fuzz_dir)) {
            const std::string name = entry.path().filename().string();
            if (!entry.is_regular_file() || name.rfind("fuzz_", 0) != 0 ||
                entry.path().extension() != ".cpp") {
                continue;
            }
            const fs::path corpus = fuzz_dir / "corpus" / entry.path().stem();
            bool has_seed = false;
            if (fs::is_directory(corpus)) {
                for (const auto& seed : fs::directory_iterator(corpus)) {
                    if (seed.is_regular_file() && seed.file_size() > 0) {
                        has_seed = true;
                        break;
                    }
                }
            }
            if (!has_seed) {
                findings.push_back(
                    {"fuzz/" + name, 1, "fuzz-corpus",
                     "fuzz target has no non-empty seed corpus at fuzz/corpus/" +
                         entry.path().stem().string()});
            }
        }
    }

    return findings;
}

}  // namespace sariadne::analyze
