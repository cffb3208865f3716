// Concurrency stress coverage for the sharded SemanticDirectory: N
// publisher threads and M query threads over shared ontologies, asserting
// no lost services and distance-correct results against the flat
// single-threaded reference. Run under ThreadSanitizer in CI
// (SARIADNE_SANITIZE=thread).
#include <atomic>
#include <cstddef>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery_engine.hpp"
#include "directory/flat_directory.hpp"
#include "directory/semantic_directory.hpp"
#include "test_helpers.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace sariadne::directory {
namespace {

namespace th = sariadne::testing;

struct StressWorld {
    encoding::KnowledgeBase kb;  // must precede workload: make_universe fills it
    workload::ServiceWorkload workload;

    explicit StressWorld(std::size_t ontologies, unsigned seed)
        : workload(make_universe(ontologies, seed, kb)) {}

private:
    static std::vector<onto::Ontology> make_universe(std::size_t ontologies,
                                                     unsigned seed,
                                                     encoding::KnowledgeBase& kb) {
        workload::OntologyGenConfig config;
        config.class_count = 25;
        auto universe = workload::generate_universe(ontologies, config, seed);
        for (const auto& o : universe) kb.register_ontology(o);
        return universe;
    }
};

TEST(Concurrency, PublishersAndQueriersDontLoseServicesOrCorrectness) {
    StressWorld world(5, 2026);
    SemanticDirectory directory(world.kb);

    // Seed population the query threads race against — these services are
    // never replaced, so every concurrent query must stay satisfied.
    constexpr std::size_t kSeeded = 40;
    for (std::size_t i = 0; i < kSeeded; ++i) {
        directory.publish(world.workload.service(i));
    }

    constexpr std::size_t kPublishers = 4;
    constexpr std::size_t kPerPublisher = 20;
    constexpr std::size_t kQueriers = 4;
    constexpr std::size_t kQueriesEach = 150;

    std::atomic<std::size_t> unsatisfied{0};
    std::atomic<std::size_t> distance_mismatches{0};

    // Single-threaded reference distances for the seeded population,
    // computed before the churn starts.
    std::vector<int> expected_best(kSeeded);
    for (std::size_t i = 0; i < kSeeded; ++i) {
        const auto result =
            directory.query(world.workload.matching_request(i));
        ASSERT_TRUE(result.fully_satisfied()) << "seed request " << i;
        expected_best[i] = result.per_capability[0][0].semantic_distance;
    }

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kPublishers; ++p) {
        threads.emplace_back([&, p] {
            for (std::size_t j = 0; j < kPerPublisher; ++j) {
                const std::size_t index = kSeeded + p * kPerPublisher + j;
                directory.publish(world.workload.service(index));
            }
        });
    }
    for (std::size_t q = 0; q < kQueriers; ++q) {
        threads.emplace_back([&, q] {
            for (std::size_t j = 0; j < kQueriesEach; ++j) {
                const std::size_t i = (q * 31 + j) % kSeeded;
                const auto result =
                    directory.query(world.workload.matching_request(i));
                if (!result.fully_satisfied()) {
                    unsatisfied.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                // Concurrent publishes can only add closer providers, never
                // push the best admissible distance up.
                if (result.per_capability[0][0].semantic_distance >
                    expected_best[i]) {
                    distance_mismatches.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(unsatisfied.load(), 0u);
    EXPECT_EQ(distance_mismatches.load(), 0u);

    // No lost services: every publish survived.
    EXPECT_EQ(directory.service_count(), kSeeded + kPublishers * kPerPublisher);

    // Distance correctness after the dust settles: the sharded DAG answer
    // agrees with a flat linear-scan directory over the same content.
    FlatDirectory flat(world.kb);
    const std::size_t total = kSeeded + kPublishers * kPerPublisher;
    for (std::size_t i = 0; i < total; ++i) {
        flat.publish(world.workload.service(i));
    }
    for (std::size_t i = 0; i < total; i += 7) {
        const auto resolved = desc::resolve_request(
            world.workload.matching_request(i), world.kb.registry());
        const auto from_dag = directory.query_resolved(resolved);
        MatchStats stats;
        QueryTiming timing;
        const auto from_flat = flat.query(resolved, stats, timing);
        ASSERT_EQ(from_dag.per_capability.size(), from_flat.size());
        for (std::size_t c = 0; c < from_flat.size(); ++c) {
            ASSERT_FALSE(from_dag.per_capability[c].empty()) << "request " << i;
            ASSERT_FALSE(from_flat[c].empty()) << "request " << i;
            EXPECT_EQ(from_dag.per_capability[c][0].semantic_distance,
                      from_flat[c][0].semantic_distance)
                << "request " << i << " capability " << c;
        }
    }
}

TEST(Concurrency, ReuseApiArenaLifecycleIsSafeUnderPublishRemoveChurn) {
    // The zero-allocation query path: each querier thread holds ONE
    // QueryResult and funnels every query through the buffer-reusing
    // overload, so its thread-local arena is reset and re-bumped thousands
    // of times while publishers add services and removers retract them.
    // Under TSan this pins down (a) that arena scratch never crosses
    // threads, (b) that hits materialized into the caller's QueryResult
    // are deep copies that survive both the next arena reset and the
    // removal of the service they name, and (c) that a warmed-up thread
    // stops growing its arena (scratch_allocs settles to 0) even as the
    // directory churns underneath it.
    StressWorld world(5, 4031);
    SemanticDirectory directory(world.kb);

    constexpr std::size_t kSeeded = 40;
    for (std::size_t i = 0; i < kSeeded; ++i) {
        directory.publish(world.workload.service(i));
    }

    // Churn population: published and removed repeatedly while queries run.
    constexpr std::size_t kChurn = 30;
    constexpr std::size_t kQueriers = 4;
    constexpr std::size_t kQueriesEach = 300;

    std::vector<std::vector<desc::ResolvedCapability>> requests;
    for (std::size_t i = 0; i < kSeeded; ++i) {
        requests.push_back(desc::resolve_request(
            world.workload.matching_request(i), world.kb));
    }

    std::atomic<std::size_t> unsatisfied{0};
    std::atomic<std::size_t> stale_copies{0};
    std::atomic<std::uint64_t> tail_scratch_allocs{0};
    std::atomic<bool> stop{false};

    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // publish/remove churn
        for (int round = 0; round < 12; ++round) {
            std::vector<ServiceId> ids;
            for (std::size_t j = 0; j < kChurn; ++j) {
                ids.push_back(
                    directory.publish(world.workload.service(kSeeded + j)).id);
            }
            for (const ServiceId id : ids) directory.remove(id);
        }
        stop.store(true, std::memory_order_release);
    });
    for (std::size_t q = 0; q < kQueriers; ++q) {
        threads.emplace_back([&, q] {
            QueryResult reused;  // one buffer for the thread's lifetime
            std::vector<MatchHit> snapshot;
            std::uint64_t tail = 0;
            for (std::size_t j = 0; j < kQueriesEach; ++j) {
                const std::size_t i = (q * 17 + j) % kSeeded;
                directory.query_resolved(requests[i], {}, reused);
                if (!reused.fully_satisfied()) {
                    unsatisfied.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                // Copy a hit out, run another query (arena reset + rebump),
                // then check the copy — catches any materialization that
                // aliases arena memory instead of deep-copying.
                snapshot.assign(reused.per_capability[0].begin(),
                                reused.per_capability[0].end());
                const std::string name = snapshot[0].service_name;
                const std::string cap = snapshot[0].capability_name;
                directory.query_resolved(requests[(i + 1) % kSeeded], {},
                                         reused);
                if (snapshot[0].service_name != name ||
                    snapshot[0].capability_name != cap) {
                    stale_copies.fetch_add(1, std::memory_order_relaxed);
                }
                // Second half of the run: the arena footprint must have
                // stabilized regardless of concurrent churn.
                if (j >= kQueriesEach / 2) {
                    tail += reused.stats.scratch_allocs;
                }
            }
            tail_scratch_allocs.fetch_add(tail, std::memory_order_relaxed);
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(unsatisfied.load(), 0u);
    EXPECT_EQ(stale_copies.load(), 0u);
    EXPECT_EQ(tail_scratch_allocs.load(), 0u);
    EXPECT_TRUE(stop.load());
    EXPECT_EQ(directory.service_count(), kSeeded);  // churn fully retracted
}

TEST(Concurrency, FastPathQueriesAreRaceFreeAndCorrectUnderChurn) {
    // Fast-path variant of the stress test above: the request capabilities
    // are resolved through the KnowledgeBase overload so they carry fresh
    // CodeSignatures, and several query threads share those *same* signed
    // objects concurrently while publishers churn. The batched kernel and
    // the quick-reject summaries only ever read the signatures, so this
    // must be TSan-clean and distance-identical to the seeded reference.
    StressWorld world(4, 4242);
    SemanticDirectory directory(world.kb);

    constexpr std::size_t kSeeded = 32;
    for (std::size_t i = 0; i < kSeeded; ++i) {
        directory.publish(world.workload.service(i));
    }

    // Pre-signed shared requests + single-threaded reference distances.
    std::vector<std::vector<desc::ResolvedCapability>> signed_requests;
    std::vector<int> expected_best(kSeeded);
    signed_requests.reserve(kSeeded);
    for (std::size_t i = 0; i < kSeeded; ++i) {
        signed_requests.push_back(desc::resolve_request(
            world.workload.matching_request(i), world.kb));
        const auto result = directory.query_resolved(signed_requests.back());
        ASSERT_TRUE(result.fully_satisfied()) << "seed request " << i;
        expected_best[i] = result.per_capability[0][0].semantic_distance;
    }

    constexpr std::size_t kPublishers = 3;
    constexpr std::size_t kPerPublisher = 16;
    constexpr std::size_t kQueriers = 4;
    constexpr std::size_t kQueriesEach = 120;

    std::atomic<std::size_t> unsatisfied{0};
    std::atomic<std::size_t> distance_mismatches{0};

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kPublishers; ++p) {
        threads.emplace_back([&, p] {
            for (std::size_t j = 0; j < kPerPublisher; ++j) {
                const std::size_t index = kSeeded + p * kPerPublisher + j;
                directory.publish(world.workload.service(index));
            }
        });
    }
    for (std::size_t q = 0; q < kQueriers; ++q) {
        threads.emplace_back([&, q] {
            for (std::size_t j = 0; j < kQueriesEach; ++j) {
                const std::size_t i = (q * 13 + j) % kSeeded;
                const auto result =
                    directory.query_resolved(signed_requests[i]);
                if (!result.fully_satisfied()) {
                    unsatisfied.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (result.per_capability[0][0].semantic_distance >
                    expected_best[i]) {
                    distance_mismatches.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(unsatisfied.load(), 0u);
    EXPECT_EQ(distance_mismatches.load(), 0u);
    EXPECT_EQ(directory.service_count(), kSeeded + kPublishers * kPerPublisher);

    // The fast path actually engaged: quick-rejects are part of the
    // lifetime stats only when signatures were live during the sweep.
    const MatchStats lifetime = directory.lifetime_stats();
    EXPECT_GT(lifetime.quick_rejects, 0u);
}

TEST(Concurrency, ConcurrentRemovalsKeepTheTableConsistent) {
    StressWorld world(3, 77);
    SemanticDirectory directory(world.kb);

    constexpr std::size_t kServices = 40;
    std::vector<ServiceId> ids;
    ids.reserve(kServices);
    for (std::size_t i = 0; i < kServices; ++i) {
        ids.push_back(directory.publish(world.workload.service(i)).id);
    }

    std::vector<std::thread> threads;
    // Two removers split the even-indexed services between them; two
    // queriers hammer the surviving odd-indexed population.
    for (std::size_t r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            for (std::size_t i = r * 2; i < kServices; i += 4) {
                EXPECT_TRUE(directory.remove(ids[i]));
            }
        });
    }
    std::atomic<std::size_t> unsatisfied{0};
    for (std::size_t q = 0; q < 2; ++q) {
        threads.emplace_back([&] {
            for (std::size_t j = 0; j < 100; ++j) {
                const std::size_t i = 1 + 2 * (j % (kServices / 2));
                const auto result =
                    directory.query(world.workload.matching_request(i));
                if (!result.fully_satisfied()) {
                    unsatisfied.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(unsatisfied.load(), 0u);
    EXPECT_EQ(directory.service_count(), kServices / 2);
    // Removing an already-removed handle reports false, never crashes.
    EXPECT_FALSE(directory.remove(ids[0]));
}

TEST(Concurrency, ParallelEngineDiscoverIsSafeUnderConcurrentPublish) {
    DiscoveryEngine engine;
    engine.register_ontology(th::media_ontology());
    engine.register_ontology(th::server_ontology());
    engine.publish(th::workstation_service());

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    desc::Capability second = th::get_video_stream();
    second.name = "SecondNeed";
    request.capabilities.push_back(second);

    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        int n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            desc::ServiceDescription service = th::workstation_service();
            service.profile.service_name = "Churn" + std::to_string(n++ % 5);
            engine.publish(std::move(service));
        }
    });
    for (int i = 0; i < 50; ++i) {
        const auto results = engine.discover(request);
        ASSERT_EQ(results.size(), 2u);
        EXPECT_FALSE(results[0].empty());
        EXPECT_FALSE(results[1].empty());
    }
    stop.store(true, std::memory_order_relaxed);
    publisher.join();
}

}  // namespace
}  // namespace sariadne::directory
