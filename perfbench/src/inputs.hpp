// Workload table, seeded input generation and the reference answers every
// reply is checked against.
//
// Every workload runs over the paper's §5 universe (22 ontologies of 40
// classes). From the seed the benchmark generates the universe, the
// service documents, the distinct request documents and a stateless
// operation stream: op(g) depends only on (seed, g), so the daemon
// clients, the simulated backbone and the traced in-process replay all
// see the same operations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "reasoner/knowledge_base.hpp"
#include "workload/service_gen.hpp"

namespace perfbench {

enum class Mode { kDaemon, kBackbone };

struct WorkloadSpec {
    std::string_view name;
    Mode mode;
    std::size_t services;
    std::size_t distinct_requests;
    /// Share of the distinct requests that are random requests. Daemon
    /// workloads keep only random requests no service satisfies (the
    /// daemon parses those twice); backbone_sim keeps them as drawn.
    double random_share;
    /// Share of the operation stream that re-advertises a published
    /// service (same document, so the reference answers still hold). Kept
    /// off 0.5: the daemon acknowledges a publish at once but defers a
    /// query's reply through a timer, so the two latency modes sit apart
    /// and an even mix would put the p50 in the gap between them.
    double publish_share;
    /// Open-loop rate of the "mid" phase, ops/s, frozen when the benchmark
    /// was defined (see workloads()) so later changes are measured at the
    /// same offered load.
    double mid_rate;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// §5 universe parameters; the daemon regenerates the same universe from
/// `--universe 22 --classes 40 --seed S`.
inline constexpr std::size_t kOntologies = 22;
inline constexpr std::size_t kClassesPerOntology = 40;

/// The best-tier answer a directory must give: service names with their
/// semantic distance, sorted; `satisfied` mirrors the daemon's flag (true
/// iff any hit).
struct Expected {
    bool satisfied = false;
    std::vector<std::pair<std::string, int>> hits;
};

struct Op {
    bool publish = false;
    std::uint32_t doc = 0;  ///< service index (publish) or request index
};

struct Inputs {
    const WorkloadSpec* spec = nullptr;
    std::uint64_t seed = 0;
    std::unique_ptr<sariadne::workload::ServiceWorkload> generator;
    sariadne::encoding::KnowledgeBase kb;
    std::vector<std::string> services;
    std::vector<std::string> requests;
    std::vector<Expected> expected;  ///< parallel to `requests`
    /// Service a request was generated to match, -1 for random requests;
    /// parallel to `requests`.
    std::vector<std::int64_t> target;

    /// The g-th operation of the workload's stream.
    Op op(std::uint64_t g) const;
};

/// Generates the universe, documents and operation stream for `seed`, and
/// the reference answer of every distinct request from
/// directory::FlatDirectory — a linear scan that shares no index or DAG
/// code with SemanticDirectory, the code later changes optimize.
std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                    std::uint64_t seed);

/// Checks that an in-process SemanticDirectory holding the same services
/// gives the reference answer for every distinct request. Returns an empty
/// string on agreement, else a description of the first disagreement.
std::string check_semantic_directory(Inputs& inputs);

/// The same comparison a reply gets: hits as (name, distance) pairs,
/// order-insensitive (ids change on re-advertisement, names do not).
bool same_answer(const Expected& expected, bool satisfied,
                 std::vector<std::pair<std::string_view, int>>& hits);

}  // namespace perfbench
