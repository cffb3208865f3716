#include "core/discovery_engine.hpp"

#include <utility>

#include "support/catching.hpp"
#include "support/stopwatch.hpp"

namespace sariadne {

using support::catching;

Result<PublishReceipt> DiscoveryEngine::try_publish(
    std::string_view service_xml) {
    return catching<PublishReceipt>(
        [&] { return directory_->publish_xml(service_xml); });
}

DiscoveryEngine::DiscoveryRows DiscoveryEngine::discover(
    std::string_view request_xml, const QueryOptions& options) {
    Stopwatch stopwatch;
    DiscoveryRows rows =
        to_discoveries(directory_->query_xml(request_xml, options));
    record_discovery(rows, stopwatch.elapsed_ms());
    return rows;
}

DiscoveryEngine::DiscoveryRows DiscoveryEngine::discover(
    const desc::ServiceRequest& request, const QueryOptions& options) {
    Stopwatch stopwatch;
    DiscoveryRows rows = to_discoveries(directory_->query(request, options));
    record_discovery(rows, stopwatch.elapsed_ms());
    return rows;
}

void DiscoveryEngine::record_discovery(const DiscoveryRows& rows,
                                       double elapsed_ms) {
    engine_metrics_.discoveries->inc();
    bool satisfied = !rows.empty();
    for (const auto& row : rows) {
        if (row.empty()) satisfied = false;
    }
    if (satisfied) {
        engine_metrics_.discoveries_satisfied->inc();
    } else {
        engine_metrics_.discoveries_unsatisfied->inc();
    }
    engine_metrics_.discover_ms->observe(elapsed_ms);
}

Result<DiscoveryEngine::DiscoveryRows> DiscoveryEngine::try_discover(
    std::string_view request_xml, const QueryOptions& options) {
    return catching<DiscoveryRows>(
        [&] { return discover(request_xml, options); });
}

DiscoveryEngine::DiscoveryRows DiscoveryEngine::to_discoveries(
    const directory::QueryResult& result) const {
    DiscoveryRows out;
    out.reserve(result.per_capability.size());
    for (const auto& hits : result.per_capability) {
        std::vector<Discovery> row;
        row.reserve(hits.size());
        for (const auto& hit : hits) {
            Discovery discovery;
            discovery.service_name = hit.service_name;
            discovery.capability_name = hit.capability_name;
            discovery.semantic_distance = hit.semantic_distance;
            if (auto grounding = directory_->grounding(hit.service)) {
                discovery.grounding = std::move(*grounding);
            }
            row.push_back(std::move(discovery));
        }
        out.push_back(std::move(row));
    }
    return out;
}

}  // namespace sariadne
