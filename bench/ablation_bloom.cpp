// Ablation A2 — Bloom-filter directory summaries (§4) and the exact
// interval-bitmap alternative.
//
// Three questions the routing layer hinges on:
//   (a) how the false-positive rate — the probability a directory is
//       needlessly queried — depends on filter size m and hash count k,
//       and how close measurement is to the (1 - e^{-kn/m})^k theory;
//   (b) how many forwarded request messages Bloom-selective forwarding
//       saves against flooding every directory, at various backbone sizes;
//   (c) the routing-precision frontier: on a partitioned multi-directory
//       workload, wasted forwards / summary bytes / time-to-first-result
//       for Bloom filters across m against the exact concept-code summary,
//       plus delta-vs-snapshot push bytes under churn. Results are
//       upserted into BENCH_routing.json. `--small` runs a CI-sized
//       frontier.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bloom/bloom_filter.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "summary/interval_summary.hpp"
#include "summary/routing_summary.hpp"
#include "summary/summary_wire.hpp"
#include "support/stopwatch.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

using namespace sariadne;
using bloom::BloomFilter;
using bloom::BloomParams;

namespace {

/// One Bloom configuration of the frontier: per-directory filters fed the
/// same ontology-URI sets the protocol's summary push would carry.
struct BloomCell {
    BloomParams params;
    std::vector<BloomFilter> filters;
    std::size_t forwards = 0;
    std::size_t wasted = 0;
    bool false_negative = false;
};

/// (c) Routing-precision frontier. Hot ontologies are partitioned across
/// directories (each lives wholly in one place — the regime the backbone
/// aims for), while every directory also caches a spread of services over
/// cold ontologies nobody requests. The clutter saturates URI-level Bloom
/// filters exactly the way real mixed caches do; the exact summary keys
/// per-ontology bitmaps and is immune to it.
void run_frontier(std::size_t services, std::size_t dirs, bool small,
                  bool final_size, bench::ShapeChecks& checks) {
    const std::size_t hot = small ? 8 : 24;
    const std::size_t cold = hot;
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 26;
    encoding::KnowledgeBase kb;
    auto universe = workload::generate_universe(hot + cold, onto_config, 77);
    for (const auto& o : universe) kb.register_ontology(o);
    workload::ServiceWorkload workload(std::move(universe));

    // Partition: hot-ontology services by ontology; cold clutter rotates one
    // directory per occurrence of its ontology. (A plain `i % dirs` would
    // silently re-partition by ontology because dirs divides hot + cold.)
    std::vector<std::vector<desc::ServiceDescription>> batches(dirs);
    std::vector<std::size_t> hot_indices;
    for (std::size_t i = 0; i < services; ++i) {
        const std::size_t o = i % (hot + cold);
        const std::size_t d =
            o < hot ? o % dirs : (o + i / (hot + cold)) % dirs;
        batches[d].push_back(workload.service(i));
        if (o < hot) hot_indices.push_back(i);
    }

    std::vector<std::unique_ptr<directory::SemanticDirectory>> directories;
    Stopwatch publish_watch;
    for (std::size_t d = 0; d < dirs; ++d) {
        directories.push_back(std::make_unique<directory::SemanticDirectory>(
            kb, directory::SummaryConfig{summary::SummaryBackend::kInterval}));
        directories[d]->publish_batch(batches[d]);
    }
    const double publish_ms = publish_watch.elapsed_ms();

    // Bloom frontier cells + the exact snapshots a push would ship.
    std::vector<BloomCell> cells;
    const std::vector<BloomParams> frontier =
        small ? std::vector<BloomParams>{{256, 2}, {1024, 4}}
              : std::vector<BloomParams>{
                    {256, 2}, {512, 4}, {1024, 4}, {4096, 4}};
    for (const BloomParams params : frontier) {
        BloomCell cell;
        cell.params = params;
        cell.filters.assign(dirs, BloomFilter(params));
        cells.push_back(std::move(cell));
    }
    std::vector<summary::IntervalSummary> summaries;
    std::size_t exact_summary_bytes = 0;
    for (std::size_t d = 0; d < dirs; ++d) {
        for (const desc::ServiceDescription& service : batches[d]) {
            for (const auto& cap : desc::resolve_provided(service, kb)) {
                const auto uris = summary::ontology_uris(cap, kb.registry());
                for (BloomCell& cell : cells) {
                    cell.filters[d].insert_ontology_set(uris);
                }
            }
        }
        summaries.push_back(directories[d]->summary().interval());
        exact_summary_bytes += summary::encode_summary(summaries[d]).size();
    }

    // Requests over the hot partition only; every request has exactly one
    // home directory that truly matches, so each extra forward is waste.
    const std::size_t request_count =
        std::min<std::size_t>(hot_indices.size(), small ? 60 : 400);
    std::size_t exact_forwards = 0;
    std::size_t exact_wasted = 0;
    bool exact_false_negative = false;
    std::vector<double> exact_first_us;
    std::vector<double> bloom_first_us;
    for (std::size_t r = 0; r < request_count; ++r) {
        const auto request = workload.matching_request(hot_indices[r]);
        const auto resolved = desc::resolve_request(request, kb);
        const summary::RequestProbe probe =
            summary::build_request_probe(resolved, kb);
        std::vector<std::string> uris;
        for (const auto& cap : resolved) {
            for (const std::string& uri :
                 summary::ontology_uris(cap, kb.registry())) {
                uris.push_back(uri);
            }
        }
        std::vector<bool> truth(dirs, false);
        for (std::size_t d = 0; d < dirs; ++d) {
            const auto result = directories[d]->query_resolved(resolved);
            for (const auto& hits : result.per_capability) {
                truth[d] = truth[d] || !hits.empty();
            }
        }
        for (std::size_t d = 0; d < dirs; ++d) {
            const bool exact_fwd = summaries[d].covers(probe);
            if (exact_fwd) {
                ++exact_forwards;
                if (!truth[d]) ++exact_wasted;
            } else if (truth[d]) {
                exact_false_negative = true;
            }
            for (BloomCell& cell : cells) {
                const bool bloom_fwd = cell.filters[d].possibly_covers(uris);
                if (bloom_fwd) {
                    ++cell.forwards;
                    if (!truth[d]) ++cell.wasted;
                } else if (truth[d]) {
                    cell.false_negative = true;
                }
            }
        }

        // Interleaved A/B time-to-first-result: route with each summary
        // kind, querying selected directories until the first real hit —
        // wasted forwards show up as extra fruitless queries.
        {
            Stopwatch watch;
            bool found = false;
            for (std::size_t d = 0; d < dirs && !found; ++d) {
                if (!summaries[d].covers(probe)) continue;
                const auto result = directories[d]->query_resolved(resolved);
                for (const auto& hits : result.per_capability) {
                    found = found || !hits.empty();
                }
            }
            exact_first_us.push_back(watch.elapsed_ms() * 1000.0);
        }
        {
            Stopwatch watch;
            bool found = false;
            for (std::size_t d = 0; d < dirs && !found; ++d) {
                if (!cells.front().filters[d].possibly_covers(uris)) continue;
                const auto result = directories[d]->query_resolved(resolved);
                for (const auto& hits : result.per_capability) {
                    found = found || !hits.empty();
                }
            }
            bloom_first_us.push_back(watch.elapsed_ms() * 1000.0);
        }
    }

    // Churn: one publish + one retirement per round against a rotating
    // directory; ship the word-granular delta instead of a full snapshot
    // and tally what each policy would have cost on the wire.
    const std::size_t churn_rounds = small ? 8 : 24;
    std::size_t delta_bytes = 0;
    std::size_t snapshot_bytes = 0;
    std::size_t delta_pushes = 0;
    std::vector<directory::ServiceId> pending(dirs);
    std::vector<bool> has_pending(dirs, false);
    std::vector<summary::IntervalSummary> last_pushed = summaries;
    for (std::size_t round = 0; round < churn_rounds; ++round) {
        const std::size_t d = round % dirs;
        if (has_pending[d]) directories[d]->remove(pending[d]);
        pending[d] =
            directories[d]->publish_xml(workload.service_xml(services + round))
                .id;
        has_pending[d] = true;
        summary::IntervalSummary cur = directories[d]->summary().interval();
        const summary::SummaryDelta delta =
            summary::diff_summary(last_pushed[d], cur);
        delta_bytes += summary::encode_delta(delta).size();
        snapshot_bytes += summary::encode_summary(cur).size();
        ++delta_pushes;
        last_pushed[d] = std::move(cur);
    }

    const auto per_req = [&](std::size_t n) {
        return static_cast<double>(n) / static_cast<double>(request_count);
    };
    std::printf(
        "\nrouting precision, %zu services, %zu directories, %zu requests "
        "(publish %.0f ms):\n",
        services, dirs, request_count, publish_ms);
    std::printf("%16s %10s %10s %14s\n", "summary", "forwards", "wasted",
                "bytes/dir");
    for (const BloomCell& cell : cells) {
        std::printf("%11s %4u %10.2f %10.2f %14u\n", "bloom",
                    cell.params.bits, per_req(cell.forwards),
                    per_req(cell.wasted), cell.params.bits / 8);
    }
    std::printf("%16s %10.2f %10.2f %14zu\n", "exact-bitmap",
                per_req(exact_forwards), per_req(exact_wasted),
                exact_summary_bytes / dirs);
    auto exact_stats = bench::summarize_us(exact_first_us);
    auto bloom_stats = bench::summarize_us(bloom_first_us);
    std::printf(
        "time-to-first-result p50: exact %.1f us, bloom-%u %.1f us\n",
        exact_stats.p50_us, cells.front().params.bits, bloom_stats.p50_us);
    std::printf(
        "churn pushes: %zu deltas, %zu bytes vs %zu snapshot bytes "
        "(%.0f%% saved)\n",
        delta_pushes, delta_bytes, snapshot_bytes,
        100.0 * (1.0 - static_cast<double>(delta_bytes) /
                           static_cast<double>(snapshot_bytes)));

    const std::string suffix = std::to_string(services);
    std::string bloom_json = "[";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        char cell_json[160];
        std::snprintf(cell_json, sizeof(cell_json),
                      "%s{\"bits\": %u, \"forwards\": %zu, \"wasted\": %zu, "
                      "\"false_negative\": %s}",
                      c == 0 ? "" : ", ", cells[c].params.bits,
                      cells[c].forwards, cells[c].wasted,
                      cells[c].false_negative ? "true" : "false");
        bloom_json += cell_json;
    }
    bloom_json += "]";
    char frontier_json[512];
    std::snprintf(
        frontier_json, sizeof(frontier_json),
        "{\"services\": %zu, \"directories\": %zu, \"requests\": %zu, "
        "\"exact_forwards\": %zu, \"exact_wasted\": %zu, "
        "\"exact_bytes_per_dir\": %zu, \"bloom\": %s}",
        services, dirs, request_count, exact_forwards, exact_wasted,
        exact_summary_bytes / dirs, bloom_json.c_str());
    bench::upsert_bench_json("BENCH_routing.json",
                             "routing.frontier_" + suffix, frontier_json);
    char churn_json[256];
    std::snprintf(churn_json, sizeof(churn_json),
                  "{\"rounds\": %zu, \"delta_pushes\": %zu, "
                  "\"delta_bytes\": %zu, \"snapshot_bytes\": %zu}",
                  churn_rounds, delta_pushes, delta_bytes, snapshot_bytes);
    bench::upsert_bench_json("BENCH_routing.json",
                             "routing.delta_push_" + suffix, churn_json);
    bench::upsert_bench_json("BENCH_routing.json",
                             "routing.first_result_exact_" + suffix,
                             exact_stats);
    bench::upsert_bench_json("BENCH_routing.json",
                             "routing.first_result_bloom_" + suffix,
                             bloom_stats);

    checks.check(!exact_false_negative,
                 "exact summary never excludes a directory that matches");
    bool bloom_false_negative = false;
    for (const BloomCell& cell : cells) {
        bloom_false_negative = bloom_false_negative || cell.false_negative;
    }
    checks.check(!bloom_false_negative,
                 "Bloom summaries never exclude a directory that matches");
    checks.check(exact_wasted == 0,
                 "exact summary routing produces zero wasted forwards");
    checks.check(delta_bytes < snapshot_bytes,
                 "delta pushes undercut full snapshots under churn");
    if (final_size && !small) {
        checks.check(cells.front().wasted > 0,
                     "small Bloom filters produce measurable wasted "
                     "forwards on a cluttered cache");
        checks.check(cells.front().wasted >= cells.back().wasted,
                     "wasted forwards fall as Bloom filters grow");
    }
}

}  // namespace

int main(int argc, char** argv) {
    bool small = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) small = true;
    }
    bench::print_header(
        "Ablation A2: Bloom summary false positives and forwarding savings",
        "k and m can be chosen so that the probability of a false positive "
        "is minimized (§4)");

    constexpr std::size_t kInsertions = 64;  // ontology sets per directory
    std::printf("\nfalse-positive rate, %zu inserted ontology sets:\n",
                kInsertions);
    std::printf("%8s %4s %14s %14s\n", "m_bits", "k", "measured", "theory");

    double measured_512_4 = 0;
    double measured_4096_4 = 0;
    for (const BloomParams params :
         {BloomParams{512, 2}, BloomParams{512, 4}, BloomParams{1024, 4},
          BloomParams{2048, 4}, BloomParams{4096, 4}, BloomParams{4096, 8}}) {
        BloomFilter filter(params);
        for (std::size_t i = 0; i < kInsertions; ++i) {
            filter.insert(
                BloomFilter::element_key("member-" + std::to_string(i)));
        }
        int false_positives = 0;
        constexpr int kProbes = 50000;
        for (int i = 0; i < kProbes; ++i) {
            if (filter.possibly_contains(
                    BloomFilter::element_key("absent-" + std::to_string(i)))) {
                ++false_positives;
            }
        }
        const double measured = static_cast<double>(false_positives) / kProbes;
        const double theory =
            BloomFilter::expected_false_positive_rate(params, kInsertions);
        std::printf("%8u %4u %14.4f %14.4f\n", params.bits, params.hash_count,
                    measured, theory);
        if (params.bits == 512 && params.hash_count == 4) {
            measured_512_4 = measured;
        }
        if (params.bits == 4096 && params.hash_count == 4) {
            measured_4096_4 = measured;
        }
    }

    // (b) forwarding savings: D directories, each specializing in a few
    // ontologies out of a universe of 22; requests target one ontology.
    std::printf("\nforwarded messages per request, Bloom-selective vs flood:\n");
    std::printf("%12s %16s %10s %12s\n", "directories", "bloom_forwards",
                "flood", "saved");
    constexpr std::size_t kOntologies = 22;
    double saved_at_8 = 0;
    for (const std::size_t dirs : {2ul, 4ul, 8ul, 16ul}) {
        std::vector<BloomFilter> summaries(dirs, BloomFilter(BloomParams{1024, 4}));
        // Directory d caches services over ontologies {d, d+dirs, ...}.
        for (std::size_t d = 0; d < dirs; ++d) {
            for (std::size_t o = d; o < kOntologies; o += dirs) {
                const std::vector<std::string> uris{
                    "http://onto/" + std::to_string(o)};
                summaries[d].insert_ontology_set(uris);
            }
        }
        std::size_t bloom_forwards = 0;
        std::size_t requests = 0;
        for (std::size_t o = 0; o < kOntologies; ++o) {
            const std::vector<std::string> uris{"http://onto/" +
                                                std::to_string(o)};
            for (std::size_t d = 0; d < dirs; ++d) {
                if (summaries[d].possibly_covers(uris)) ++bloom_forwards;
            }
            ++requests;
        }
        const double per_request =
            static_cast<double>(bloom_forwards) / static_cast<double>(requests);
        const double flood = static_cast<double>(dirs);
        std::printf("%12zu %16.2f %10.0f %11.0f%%\n", dirs, per_request, flood,
                    100.0 * (1.0 - per_request / flood));
        if (dirs == 8) saved_at_8 = 1.0 - per_request / flood;
    }

    std::printf("\n");
    bench::ShapeChecks checks;
    checks.check(measured_512_4 > measured_4096_4,
                 "larger filters yield fewer false positives");
    checks.check(measured_4096_4 < 0.01,
                 "a 4096-bit filter keeps false positives under 1%");
    checks.check(saved_at_8 > 0.5,
                 "Bloom-selective forwarding saves >50% of forwards at 8 "
                 "directories");

    // (c) the routing-precision frontier, written to BENCH_routing.json.
    if (small) {
        run_frontier(240, 4, /*small=*/true, /*final_size=*/true, checks);
    } else {
        run_frontier(1000, 8, /*small=*/false, /*final_size=*/false, checks);
        run_frontier(10000, 8, /*small=*/false, /*final_size=*/true, checks);
    }

    std::printf("\n");
    return checks.finish("ablation_bloom");
}
