#include "description/resolved.hpp"

#include "reasoner/knowledge_base.hpp"

namespace sariadne::desc {

ResolvedCapability resolve_capability(const Capability& capability,
                                      const onto::OntologyRegistry& registry,
                                      std::string service_name) {
    ResolvedCapability resolved;
    resolved.name = capability.name;
    resolved.service_name = std::move(service_name);
    resolved.kind = capability.kind;
    resolved.code_version = capability.code_version;

    const auto resolve_into = [&](const std::string& qname,
                                  std::vector<ConceptRef>& out) {
        const ConceptRef ref = registry.resolve(qname);
        out.push_back(ref);
        resolved.ontologies.insert(ref.ontology);
    };

    for (const auto& param : capability.inputs) {
        resolve_into(param.concept_qname, resolved.inputs);
    }
    for (const auto& param : capability.outputs) {
        resolve_into(param.concept_qname, resolved.outputs);
    }
    if (!capability.category_qname.empty()) {
        resolve_into(capability.category_qname, resolved.properties);
    }
    for (const auto& prop : capability.property_qnames) {
        resolve_into(prop, resolved.properties);
    }
    return resolved;
}

std::vector<ResolvedCapability> resolve_provided(
    const ServiceDescription& service, const onto::OntologyRegistry& registry) {
    std::vector<ResolvedCapability> result;
    for (const auto& cap : service.profile.capabilities) {
        if (cap.kind != CapabilityKind::kProvided) continue;
        result.push_back(
            resolve_capability(cap, registry, service.profile.service_name));
    }
    return result;
}

std::vector<ResolvedCapability> resolve_request(
    const ServiceRequest& request, const onto::OntologyRegistry& registry) {
    std::vector<ResolvedCapability> result;
    result.reserve(request.capabilities.size());
    for (const auto& cap : request.capabilities) {
        result.push_back(resolve_capability(cap, registry, request.requester));
    }
    return result;
}

void attach_code_signature(ResolvedCapability& capability,
                           encoding::KnowledgeBase& kb) {
    CodeSignature signature;
    std::size_t total = 0;
    for (const auto* role :
         {&capability.inputs, &capability.outputs, &capability.properties}) {
        for (const ConceptRef ref : *role) {
            total += kb.code_table(ref.ontology).occurrences_of(ref.concept_id)
                         .size();
        }
    }
    signature.intervals.reserve(total);

    const auto pack_role = [&](const std::vector<ConceptRef>& role,
                               std::vector<CodedConceptSpan>& out) {
        out.reserve(role.size());
        for (const ConceptRef ref : role) {
            const encoding::CodeTable& table = kb.code_table(ref.ontology);
            const auto occurrences = table.occurrences_of(ref.concept_id);
            CodedConceptSpan span;
            span.ontology = ref.ontology;
            span.canonical = table.canonical(ref.concept_id);
            span.begin = static_cast<std::uint32_t>(signature.intervals.size());
            span.count = static_cast<std::uint32_t>(occurrences.size());
            signature.intervals.insert(signature.intervals.end(),
                                       occurrences.begin(), occurrences.end());
            out.push_back(span);
        }
    };
    pack_role(capability.inputs, signature.inputs);
    pack_role(capability.outputs, signature.outputs);
    pack_role(capability.properties, signature.properties);

    signature.environment_tag = kb.environment_tag(capability.ontologies);
    signature.global_tag = kb.environment_tag();
    signature.valid = true;
    capability.signature = std::move(signature);
}

void attach_code_signatures(std::vector<ResolvedCapability>& capabilities,
                            encoding::KnowledgeBase& kb) {
    for (auto& capability : capabilities) attach_code_signature(capability, kb);
}

std::vector<ResolvedCapability> resolve_provided(
    const ServiceDescription& service, encoding::KnowledgeBase& kb) {
    auto resolved = resolve_provided(service, kb.registry());
    attach_code_signatures(resolved, kb);
    return resolved;
}

std::vector<ResolvedCapability> resolve_request(const ServiceRequest& request,
                                                encoding::KnowledgeBase& kb) {
    auto resolved = resolve_request(request, kb.registry());
    attach_code_signatures(resolved, kb);
    return resolved;
}

}  // namespace sariadne::desc
