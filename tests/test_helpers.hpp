// Shared fixtures: the paper's Figure 1 scenario (a PDA requesting
// GetVideoStream, a workstation providing SendDigitalStream and
// ProvideGame over media-resource and server ontologies) plus small
// utilities used across suites.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "description/capability.hpp"
#include "description/service.hpp"
#include "directory/dag.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "ontology/ontology.hpp"
#include "summary/routing_summary.hpp"

namespace sariadne::testing {

inline constexpr const char* kMediaUri = "http://amigo.example/onto/media";
inline constexpr const char* kServerUri = "http://amigo.example/onto/server";

/// Media resource ontology of Figure 1:
///   Resource
///     DigitalResource
///       VideoResource   (MovieResource below it)
///       SoundResource
///       GameResource
///   Stream
///     VideoStream
inline onto::Ontology media_ontology() {
    onto::Ontology o(kMediaUri);
    const auto resource = o.add_class("Resource");
    const auto digital = o.add_class("DigitalResource");
    const auto video = o.add_class("VideoResource");
    const auto sound = o.add_class("SoundResource");
    const auto game = o.add_class("GameResource");
    const auto movie = o.add_class("MovieResource");
    const auto stream = o.add_class("Stream");
    const auto video_stream = o.add_class("VideoStream");
    o.add_subclass_of(digital, resource);
    o.add_subclass_of(video, digital);
    o.add_subclass_of(sound, digital);
    o.add_subclass_of(game, digital);
    o.add_subclass_of(movie, video);
    o.add_subclass_of(video_stream, stream);
    o.add_disjoint(video, sound);
    const auto title = o.add_class("Title");
    const auto has_title = o.add_property("hasTitle");
    o.set_property_domain(has_title, resource);
    o.set_property_range(has_title, title);
    return o;
}

/// Server category ontology of Figure 1:
///   Server
///     DigitalServer
///       MediaServer
///         VideoServer
///       GameServer
inline onto::Ontology server_ontology() {
    onto::Ontology o(kServerUri);
    const auto server = o.add_class("Server");
    const auto digital = o.add_class("DigitalServer");
    const auto media = o.add_class("MediaServer");
    const auto video = o.add_class("VideoServer");
    const auto game = o.add_class("GameServer");
    o.add_subclass_of(digital, server);
    o.add_subclass_of(media, digital);
    o.add_subclass_of(video, media);
    o.add_subclass_of(game, digital);
    return o;
}

inline std::string media(const char* local) {
    return std::string(kMediaUri) + "#" + local;
}

inline std::string server(const char* local) {
    return std::string(kServerUri) + "#" + local;
}

/// The workstation's generic capability: category DigitalServer, expects a
/// DigitalResource, offers a Stream.
inline desc::Capability send_digital_stream() {
    desc::Capability cap;
    cap.name = "SendDigitalStream";
    cap.kind = desc::CapabilityKind::kProvided;
    cap.category_qname = server("DigitalServer");
    cap.inputs.push_back(desc::Parameter{"resource", media("DigitalResource")});
    cap.outputs.push_back(desc::Parameter{"stream", media("Stream")});
    return cap;
}

/// The workstation's second capability: category GameServer, expects a
/// GameResource, offers a Stream.
inline desc::Capability provide_game() {
    desc::Capability cap;
    cap.name = "ProvideGame";
    cap.kind = desc::CapabilityKind::kProvided;
    cap.category_qname = server("GameServer");
    cap.inputs.push_back(desc::Parameter{"game", media("GameResource")});
    cap.outputs.push_back(desc::Parameter{"stream", media("Stream")});
    return cap;
}

/// The PDA's requested capability: category VideoServer, offers a
/// VideoResource title, expects a Stream.
inline desc::Capability get_video_stream() {
    desc::Capability cap;
    cap.name = "GetVideoStream";
    cap.kind = desc::CapabilityKind::kRequired;
    cap.category_qname = server("VideoServer");
    cap.inputs.push_back(desc::Parameter{"title", media("VideoResource")});
    cap.outputs.push_back(desc::Parameter{"stream", media("Stream")});
    return cap;
}

/// Workstation service description holding both provided capabilities.
inline desc::ServiceDescription workstation_service() {
    desc::ServiceDescription service;
    service.profile.service_name = "Workstation";
    service.profile.provider = "amigo-home";
    service.middleware = "WS";
    service.grounding.protocol = "SOAP";
    service.grounding.address = "http://workstation.local/media";
    service.profile.capabilities.push_back(send_digital_stream());
    service.profile.capabilities.push_back(provide_game());
    return service;
}

/// A service `name` with one provided capability: category DigitalServer,
/// no inputs, one output `output_qname`.
inline desc::ServiceDescription one_output_service(
    const std::string& name, const std::string& output_qname) {
    desc::Capability cap;
    cap.name = name + "Cap";
    cap.kind = desc::CapabilityKind::kProvided;
    cap.category_qname = server("DigitalServer");
    cap.outputs.push_back(desc::Parameter{"out", output_qname});
    desc::ServiceDescription service;
    service.profile.service_name = name;
    service.profile.provider = "amigo-home";
    service.middleware = "WS";
    service.grounding.protocol = "SOAP";
    service.grounding.address = "http://" + name + ".local/";
    service.profile.capabilities.push_back(std::move(cap));
    return service;
}

/// The hits `dag` (a CapabilityDag or a DagIndex) finds for `request`
/// through query_all_into, the traversal SemanticDirectory runs: every
/// matching hit, or with `best_tier` only those at the minimal semantic
/// distance (a directory's default answer).
template <typename Dag>
std::vector<directory::MatchHit> dag_hits(
    const Dag& dag, const desc::ResolvedCapability& request,
    matching::DistanceOracle& oracle, directory::MatchStats& stats,
    bool best_tier = false) {
    support::Arena& arena = support::query_scratch_arena();
    arena.reset();
    support::ArenaVec<directory::RawHit> raw(arena);
    dag.query_all_into(request, oracle, stats, arena, raw);
    int best = std::numeric_limits<int>::max();
    for (const directory::RawHit& hit : raw) {
        best = std::min(best, hit.semantic_distance);
    }
    std::vector<directory::MatchHit> hits;
    for (const directory::RawHit& hit : raw) {
        if (best_tier && hit.semantic_distance != best) continue;
        hits.push_back(directory::MatchHit{
            hit.service, std::string(hit.service_name),
            std::string(hit.capability_name), hit.semantic_distance});
    }
    return hits;
}

/// Test-name suffix of a summary backend, for suites run over both.
inline std::string backend_name(summary::SummaryBackend backend) {
    return backend == summary::SummaryBackend::kBloom ? "Bloom" : "Interval";
}

/// Every counter and gauge of `registry` (name -> value), read from its
/// JSON sink: what two runs of one seed must agree on. Two kinds of series
/// are left out:
///   * histograms, because they hold wall-clock timings;
///   * matching.query_allocs, because it counts growth of a thread_local
///     arena, so its value depends on what the process ran before.
inline std::map<std::string, std::string> replay_counts(
    const obs::MetricsRegistry& registry) {
    const std::string json = registry.to_json();
    std::map<std::string, std::string> counts;
    std::size_t at = 1;  // past the opening brace
    while (at < json.size() && json[at] == '"') {
        std::string name;
        for (++at; json[at] != '"'; ++at) {
            if (json[at] == '\\') ++at;  // an escaped quote in a label
            name.push_back(json[at]);
        }
        at += 2;  // the closing quote and the colon
        const bool histogram = json[at] == '{';
        const std::size_t end = histogram ? json.find('}', at) + 1
                                          : json.find_first_of(",}", at);
        if (!histogram && name != obs::names::kMatchingQueryAllocs) {
            counts[name] = json.substr(at, end - at);
        }
        at = end + 1;  // past the comma
    }
    return counts;
}

}  // namespace sariadne::testing
