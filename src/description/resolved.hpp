// Resolution of Amigo-S documents into ResolvedCapability (see
// encoding/resolved.hpp for the data types): qualified concept names are
// looked up against an ontology registry once at publish (or
// request-build) time, never during matching. The KnowledgeBase-taking
// overloads additionally attach flat-layout code signatures for the
// batched matching kernel.
#pragma once

#include <string>
#include <vector>

#include "description/service.hpp"
#include "encoding/resolved.hpp"

namespace sariadne::encoding {
class KnowledgeBase;
}

namespace sariadne::desc {

/// Resolves every concept mention. Throws LookupError on unknown ontology
/// URIs or class names. `service_name` tags the result for diagnostics.
ResolvedCapability resolve_capability(const Capability& capability,
                                      const onto::OntologyRegistry& registry,
                                      std::string service_name = {});

/// Resolves all provided capabilities of a service description.
std::vector<ResolvedCapability> resolve_provided(
    const ServiceDescription& service, const onto::OntologyRegistry& registry);

/// Resolves all capabilities of a request (all are required).
std::vector<ResolvedCapability> resolve_request(
    const ServiceRequest& request, const onto::OntologyRegistry& registry);

/// Builds `capability.signature` from the knowledge base's current code
/// tables (building tables lazily as needed). Overwrites any previous
/// signature; the result carries the knowledge base's environment tag for
/// the capability's ontology set.
void attach_code_signature(ResolvedCapability& capability,
                           encoding::KnowledgeBase& kb);

/// attach_code_signature over a batch.
void attach_code_signatures(std::vector<ResolvedCapability>& capabilities,
                            encoding::KnowledgeBase& kb);

/// Resolve + attach signatures in one step (the publish-time path).
std::vector<ResolvedCapability> resolve_provided(
    const ServiceDescription& service, encoding::KnowledgeBase& kb);

/// Resolve + attach signatures in one step (the request path).
std::vector<ResolvedCapability> resolve_request(const ServiceRequest& request,
                                                encoding::KnowledgeBase& kb);

}  // namespace sariadne::desc
