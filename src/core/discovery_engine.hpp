// DiscoveryEngine — the library's top-level facade. Wraps a knowledge base
// and a semantic directory behind a three-verb API:
//
//   register_ontology(xml)  — load an ontology (classification + interval
//                             encoding happen offline, lazily per version)
//   publish(xml)            — advertise an Amigo-S service description
//   discover(xml, options)  — match a service request, ranked by semantic
//                             distance, tunable via QueryOptions
//
// This is the single-node embodiment of the paper's contribution: all
// semantic reasoning is front-loaded, discovery is numeric code
// comparison over classified capability DAGs. For the distributed
// protocol, see ariadne::DiscoveryNetwork, which composes the same
// directory per elected node.
//
// Thread safety mirrors SemanticDirectory: publish / withdraw / discover /
// try_* may run concurrently from any number of threads; ontology
// registration must be quiesced.
//
// Error contract: publish/discover (and register_ontology) throw the
// exception taxonomy of support/errors.hpp (ParseError, LookupError,
// InconsistencyError, VersionMismatchError). try_publish/try_discover
// never throw those — they return Result<T> carrying ErrorInfo instead —
// so network-facing callers get a branchable outcome per message.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "directory/semantic_directory.hpp"
#include "directory/types.hpp"
#include "reasoner/knowledge_base.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "ontology/loader.hpp"
#include "support/result.hpp"

namespace sariadne {

/// One ranked discovery answer.
struct Discovery {
    std::string service_name;
    std::string capability_name;
    int semantic_distance = 0;
    /// Grounding of the advertised service (how to invoke it).
    desc::Grounding grounding;
};

class DiscoveryEngine {
public:
    /// Per requested capability (request order), the ranked hits.
    using DiscoveryRows = std::vector<std::vector<Discovery>>;

    explicit DiscoveryEngine(encoding::EncodingParams params = {})
        : kb_(std::make_unique<encoding::KnowledgeBase>(params)),
          metrics_(std::make_unique<obs::MetricsRegistry>()),
          directory_(std::make_unique<directory::SemanticDirectory>(
              *kb_, directory::SummaryConfig{}, metrics_.get())) {
        engine_metrics_.discoveries = &metrics_->counter(obs::names::kEngineDiscoveries);
        engine_metrics_.discoveries_satisfied =
            &metrics_->counter(obs::names::kEngineDiscoveriesSatisfied);
        engine_metrics_.discoveries_unsatisfied =
            &metrics_->counter(obs::names::kEngineDiscoveriesUnsatisfied);
        engine_metrics_.discover_ms = &metrics_->histogram(obs::names::kEngineDiscoverMs);
    }

    /// Loads an ontology document; re-registering a URI upgrades it.
    /// Requires quiescence (no concurrent publish/discover traffic).
    void register_ontology_xml(std::string_view ontology_xml) {
        kb_->register_ontology(onto::load_ontology(ontology_xml));
    }

    void register_ontology(onto::Ontology ontology) {
        kb_->register_ontology(std::move(ontology));
    }

    // --- publish --------------------------------------------------------
    /// Publishes an Amigo-S service description. Returns its handle.
    directory::ServiceId publish(std::string_view service_xml) {
        return directory_->publish_xml(service_xml).id;
    }

    directory::ServiceId publish(desc::ServiceDescription service) {
        return directory_->publish(std::move(service)).id;
    }

    /// Non-throwing publish: the receipt (handle + timing breakdown) on
    /// success, the classified error otherwise.
    Result<PublishReceipt> try_publish(std::string_view service_xml);

    /// Withdraws a previously published service.
    bool withdraw(directory::ServiceId service) {
        return directory_->remove(service);
    }

    // --- discover -------------------------------------------------------
    /// Matches a request document; per requested capability, the ranked
    /// hits (with default options: every hit at the minimal semantic
    /// distance; empty inner vector = unsatisfied).
    DiscoveryRows discover(std::string_view request_xml,
                           const QueryOptions& options = {});

    DiscoveryRows discover(const desc::ServiceRequest& request,
                           const QueryOptions& options = {});

    /// Non-throwing discover for network-facing callers.
    Result<DiscoveryRows> try_discover(std::string_view request_xml,
                                       const QueryOptions& options = {});

    encoding::KnowledgeBase& knowledge_base() noexcept { return *kb_; }
    directory::SemanticDirectory& directory() noexcept { return *directory_; }
    const directory::SemanticDirectory& directory() const noexcept {
        return *directory_;
    }

    /// The engine-owned metrics registry: `engine.*` counters plus the
    /// `directory.*` metrics of the embedded directory. Callers may point
    /// further components (e.g. a DiscoveryNetwork) at the same registry
    /// to get one unified exposition.
    obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
    const obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }

private:
    DiscoveryRows to_discoveries(const directory::QueryResult& result) const;

    /// Classifies one finished discover call into the outcome counters and
    /// the latency histogram.
    void record_discovery(const DiscoveryRows& rows, double elapsed_ms);

    /// Cached engine-level registry handles (the registry itself is owned,
    /// so these are always non-null after construction).
    struct EngineMetrics {
        obs::Counter* discoveries = nullptr;
        obs::Counter* discoveries_satisfied = nullptr;
        obs::Counter* discoveries_unsatisfied = nullptr;
        obs::Histogram* discover_ms = nullptr;
    };

    std::unique_ptr<encoding::KnowledgeBase> kb_;
    /// Declared before directory_: the directory caches handles into this
    /// registry at construction and uses them until its own destruction.
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    EngineMetrics engine_metrics_;
    std::unique_ptr<directory::SemanticDirectory> directory_;
};

}  // namespace sariadne
