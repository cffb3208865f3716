#include "inputs.hpp"

#include <algorithm>

#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/flat_directory.hpp"
#include "directory/semantic_directory.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workload/ontology_gen.hpp"

namespace perfbench {

using namespace sariadne;

const std::vector<WorkloadSpec>& workloads() {
    // Mid rates load the daemon's reactor about half busy, as measured
    // when the benchmark was defined (4-vCPU KVM guest, Xeon host, daemon
    // and client pinned to disjoint halves). That is roughly a quarter of
    // each workload's saturation capacity: a lone request costs the
    // reactor about twice what it costs inside a saturated batch. Higher
    // rates put the reactor near saturation whenever the shared host
    // slows down, and the mid p50 would then measure the host's queueing.
    // backbone_sim has no offered rate: its phases are defined by
    // concurrency (see backbone.cpp).
    static const std::vector<WorkloadSpec> table = {
        {"query_hot", Mode::kDaemon, 2000, 64, 0.0, 0.0, 40000},
        {"query_cold", Mode::kDaemon, 2000, 8192, 0.2, 0.0, 23000},
        {"large_directory", Mode::kDaemon, 20000, 64, 0.0, 0.0, 14000},
        {"publish_mix", Mode::kDaemon, 2000, 64, 0.0, 0.4, 22000},
        {"backbone_sim", Mode::kBackbone, 2000, 1024, 0.5, 0.0, 0},
    };
    return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
    for (const WorkloadSpec& spec : workloads()) {
        if (spec.name == name) return &spec;
    }
    return nullptr;
}

Op Inputs::op(std::uint64_t g) const {
    const std::uint64_t h =
        mix64((seed * 0x9E3779B97F4A7C15ULL) ^ ((g + 1) * 0xD1B54A32D192ED03ULL));
    Op result;
    result.publish = spec->publish_share > 0 &&
                     static_cast<double>(h & 0xFFFF) <
                         spec->publish_share * 65536.0;
    const std::size_t pool = result.publish ? services.size() : requests.size();
    result.doc = static_cast<std::uint32_t>((h >> 20) % pool);
    return result;
}

namespace {

Expected answer_of(const std::vector<std::vector<directory::MatchHit>>& per_capability) {
    Expected expected;
    for (const auto& hits : per_capability) {
        for (const auto& hit : hits) {
            expected.hits.emplace_back(hit.service_name, hit.semantic_distance);
        }
    }
    std::sort(expected.hits.begin(), expected.hits.end());
    expected.satisfied = !expected.hits.empty();
    return expected;
}

Expected flat_answer(directory::FlatDirectory& flat,
                     encoding::KnowledgeBase& kb, const std::string& doc) {
    const auto resolved = desc::resolve_request(desc::parse_request(doc), kb);
    directory::MatchStats stats;
    directory::QueryTiming timing;
    return answer_of(flat.query(resolved, stats, timing));
}

}  // namespace

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
    auto inputs = std::make_unique<Inputs>();
    inputs->spec = &spec;
    inputs->seed = seed;

    workload::OntologyGenConfig onto_config;
    onto_config.class_count = kClassesPerOntology;
    workload::ServiceGenConfig service_config;
    service_config.seed = mix64(seed ^ 0x5EA51DE5ULL);
    inputs->generator = std::make_unique<workload::ServiceWorkload>(
        workload::generate_universe(kOntologies, onto_config, seed),
        service_config);
    const workload::ServiceWorkload& gen = *inputs->generator;
    for (const auto& ontology : gen.ontologies()) {
        inputs->kb.register_ontology(ontology);
    }
    for (onto::OntologyIndex i = 0; i < inputs->kb.registry().size(); ++i) {
        (void)inputs->kb.code_table(i);
    }

    directory::FlatDirectory flat(inputs->kb);
    inputs->services.reserve(spec.services);
    for (std::size_t i = 0; i < spec.services; ++i) {
        inputs->services.push_back(gen.service_xml(i));
        flat.publish_xml(inputs->services.back());
    }

    Rng rng(mix64(seed ^ 0x0DDC0FFEEULL));
    const auto random_count = static_cast<std::size_t>(
        spec.random_share * static_cast<double>(spec.distinct_requests));
    const std::size_t matching_count = spec.distinct_requests - random_count;

    // Matching requests. With more documents than services (query_cold),
    // a unique requester keeps every document distinct bytes, so each one
    // is a separate entry for the daemon's parse memo while the answer
    // stays the one of its target service.
    std::vector<std::size_t> targets(spec.services);
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = i;
    rng.shuffle(targets.begin(), targets.end());
    for (std::size_t i = 0; i < matching_count; ++i) {
        const std::size_t target = i < targets.size()
                                       ? targets[i]
                                       : rng.below(spec.services);
        desc::ServiceRequest request = gen.matching_request(target);
        request.requester = "client-" + std::to_string(i);
        inputs->requests.push_back(desc::serialize_request(request));
        inputs->expected.push_back(
            flat_answer(flat, inputs->kb, inputs->requests.back()));
        inputs->target.push_back(static_cast<std::int64_t>(target));
    }

    // Random requests. The daemon workloads keep only those no service
    // satisfies (the unsatisfied path); the backbone keeps them as drawn.
    std::uint64_t salt = seed * 0x2545F4914F6CDD1DULL;
    std::size_t drawn = 0;
    while (drawn < random_count) {
        desc::ServiceRequest request = gen.random_request(++salt);
        request.requester = "random-" + std::to_string(drawn);
        std::string doc = desc::serialize_request(request);
        Expected expected = flat_answer(flat, inputs->kb, doc);
        if (spec.mode == Mode::kDaemon && expected.satisfied) continue;
        inputs->requests.push_back(std::move(doc));
        inputs->expected.push_back(std::move(expected));
        inputs->target.push_back(-1);
        ++drawn;
    }
    return inputs;
}

std::string check_semantic_directory(Inputs& inputs) {
    directory::SemanticDirectory semantic(inputs.kb);
    for (const std::string& doc : inputs.services) semantic.publish_xml(doc);
    std::vector<std::pair<std::string_view, int>> scratch;
    for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
        const directory::QueryResult result =
            semantic.query_xml(inputs.requests[i]);
        scratch.clear();
        for (const auto& hits : result.per_capability) {
            for (const auto& hit : hits) {
                scratch.emplace_back(hit.service_name, hit.semantic_distance);
            }
        }
        if (!same_answer(inputs.expected[i], !scratch.empty(), scratch)) {
            return "SemanticDirectory disagrees with FlatDirectory on request " +
                   std::to_string(i);
        }
    }
    return {};
}

bool same_answer(const Expected& expected, bool satisfied,
                 std::vector<std::pair<std::string_view, int>>& hits) {
    if (satisfied != expected.satisfied) return false;
    if (hits.size() != expected.hits.size()) return false;
    std::sort(hits.begin(), hits.end());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        if (hits[i].first != expected.hits[i].first ||
            hits[i].second != expected.hits[i].second) {
            return false;
        }
    }
    return true;
}

}  // namespace perfbench
