#include <gtest/gtest.h>

#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "description/wsdl.hpp"
#include "ontology/registry.hpp"
#include "summary/routing_summary.hpp"
#include "support/errors.hpp"
#include "test_helpers.hpp"

namespace sariadne::desc {
namespace {

namespace th = sariadne::testing;

TEST(AmigosIo, ServiceRoundTrip) {
    const ServiceDescription original = th::workstation_service();
    const std::string xml = serialize_service(original);
    const ServiceDescription reloaded = parse_service(xml);

    EXPECT_EQ(reloaded.profile.service_name, "Workstation");
    EXPECT_EQ(reloaded.profile.provider, "amigo-home");
    EXPECT_EQ(reloaded.middleware, "WS");
    EXPECT_EQ(reloaded.grounding.protocol, "SOAP");
    EXPECT_EQ(reloaded.grounding.address, "http://workstation.local/media");
    ASSERT_EQ(reloaded.profile.capabilities.size(), 2u);

    const Capability& cap = reloaded.profile.capabilities[0];
    EXPECT_EQ(cap.name, "SendDigitalStream");
    EXPECT_EQ(cap.kind, CapabilityKind::kProvided);
    EXPECT_EQ(cap.category_qname, th::server("DigitalServer"));
    ASSERT_EQ(cap.inputs.size(), 1u);
    EXPECT_EQ(cap.inputs[0].concept_qname, th::media("DigitalResource"));
    ASSERT_EQ(cap.outputs.size(), 1u);
    EXPECT_EQ(cap.outputs[0].concept_qname, th::media("Stream"));
}

TEST(AmigosIo, RequestRoundTrip) {
    ServiceRequest request;
    request.requester = "pda-7";
    request.capabilities.push_back(th::get_video_stream());
    const ServiceRequest reloaded = parse_request(serialize_request(request));
    EXPECT_EQ(reloaded.requester, "pda-7");
    ASSERT_EQ(reloaded.capabilities.size(), 1u);
    EXPECT_EQ(reloaded.capabilities[0].name, "GetVideoStream");
    EXPECT_EQ(reloaded.capabilities[0].kind, CapabilityKind::kRequired);
}

TEST(AmigosIo, QosContextAndCodeVersionPreserved) {
    ServiceDescription service = th::workstation_service();
    service.profile.qos.push_back(QosAttribute{"latencyMs", 15.5});
    service.profile.context.push_back(ContextAttribute{"room", "living"});
    service.profile.capabilities[0].code_version = 12345;
    service.profile.capabilities[0].includes.push_back("ProvideGame");

    const ServiceDescription reloaded = parse_service(serialize_service(service));
    ASSERT_EQ(reloaded.profile.qos.size(), 1u);
    EXPECT_DOUBLE_EQ(reloaded.profile.qos[0].value, 15.5);
    ASSERT_EQ(reloaded.profile.context.size(), 1u);
    EXPECT_EQ(reloaded.profile.context[0].value, "living");
    EXPECT_EQ(reloaded.profile.capabilities[0].code_version, 12345u);
    ASSERT_EQ(reloaded.profile.capabilities[0].includes.size(), 1u);
}

TEST(AmigosIo, RequiredCapabilityKindParsed) {
    const ServiceDescription service = parse_service(R"(
      <service name="S">
        <capability name="c" kind="required">
          <output concept="u#X"/>
        </capability>
      </service>)");
    EXPECT_EQ(service.profile.capabilities[0].kind, CapabilityKind::kRequired);
}

TEST(AmigosIo, MalformedDocumentsFail) {
    EXPECT_THROW(parse_service("<nope/>"), ParseError);
    EXPECT_THROW(parse_service(R"(<service name="s"><capability/></service>)"),
                 LookupError);  // capability missing name attribute
    EXPECT_THROW(parse_service(R"(
      <service name="s"><capability name="c" kind="bogus"/></service>)"),
                 ParseError);
    EXPECT_THROW(parse_request("<request/>"), ParseError);  // no capabilities
    EXPECT_THROW(parse_request(R"(<request><capability name="c">
      <category concept="a#B"/><category concept="a#C"/>
      </capability></request>)"),
                 ParseError);  // duplicate category
}

TEST(AmigosIo, CapabilitiesOfFiltersByKind) {
    ServiceDescription service = th::workstation_service();
    Capability needed;
    needed.name = "NeedsStorage";
    needed.kind = CapabilityKind::kRequired;
    service.profile.capabilities.push_back(needed);

    EXPECT_EQ(service.profile.capabilities_of(CapabilityKind::kProvided).size(),
              2u);
    EXPECT_EQ(service.profile.capabilities_of(CapabilityKind::kRequired).size(),
              1u);
}

TEST(Resolved, ResolvesAllConceptsAndOntologySet) {
    onto::OntologyRegistry registry;
    const auto media_idx = registry.add(th::media_ontology());
    const auto server_idx = registry.add(th::server_ontology());

    const ResolvedCapability resolved =
        resolve_capability(th::send_digital_stream(), registry, "Workstation");
    EXPECT_EQ(resolved.name, "SendDigitalStream");
    EXPECT_EQ(resolved.service_name, "Workstation");
    ASSERT_EQ(resolved.inputs.size(), 1u);
    ASSERT_EQ(resolved.outputs.size(), 1u);
    // Category folded into properties.
    ASSERT_EQ(resolved.properties.size(), 1u);
    EXPECT_EQ(resolved.properties[0].ontology, server_idx);
    EXPECT_TRUE(resolved.ontologies.contains(media_idx));
    EXPECT_TRUE(resolved.ontologies.contains(server_idx));
    EXPECT_EQ(resolved.ontologies.size(), 2u);

    const auto uris = summary::ontology_uris(resolved, registry);
    EXPECT_EQ(uris.size(), 2u);
}

TEST(Resolved, UnknownConceptFails) {
    onto::OntologyRegistry registry;
    registry.add(th::media_ontology());
    Capability cap = th::send_digital_stream();  // references server ontology
    EXPECT_THROW(resolve_capability(cap, registry), LookupError);
}

TEST(Resolved, ResolveProvidedSkipsRequired) {
    onto::OntologyRegistry registry;
    registry.add(th::media_ontology());
    registry.add(th::server_ontology());
    ServiceDescription service = th::workstation_service();
    Capability needed = th::get_video_stream();  // kind = required
    service.profile.capabilities.push_back(needed);

    const auto provided = resolve_provided(service, registry);
    EXPECT_EQ(provided.size(), 2u);
    ServiceRequest pda_request;
    pda_request.requester = "pda";
    pda_request.capabilities.push_back(th::get_video_stream());
    const auto request = resolve_request(pda_request, registry);
    EXPECT_EQ(request.size(), 1u);
}

TEST(Wsdl, RoundTrip) {
    WsdlDescription wsdl;
    wsdl.service_name = "Media";
    WsdlOperation op;
    op.name = "getStream";
    op.inputs.push_back(WsdlPart{"title", "xs:string"});
    op.outputs.push_back(WsdlPart{"stream", "tns:Stream"});
    wsdl.operations.push_back(op);

    const WsdlDescription reloaded = parse_wsdl(serialize_wsdl(wsdl));
    EXPECT_EQ(reloaded.service_name, "Media");
    ASSERT_EQ(reloaded.operations.size(), 1u);
    EXPECT_EQ(reloaded.operations[0].inputs[0].type, "xs:string");
}

TEST(Wsdl, ConformanceIsExactSyntactic) {
    WsdlOperation provided;
    provided.name = "get";
    provided.inputs.push_back(WsdlPart{"a", "T1"});
    provided.inputs.push_back(WsdlPart{"b", "T2"});
    provided.outputs.push_back(WsdlPart{"r", "R"});

    WsdlOperation required = provided;
    EXPECT_TRUE(operation_conforms(provided, required));

    // Extra provided inputs are fine; missing ones are not.
    required.inputs.pop_back();
    EXPECT_TRUE(operation_conforms(provided, required));
    required.inputs.push_back(WsdlPart{"b", "T2-different"});
    EXPECT_FALSE(operation_conforms(provided, required));

    // Different operation name: no match, even with equal signatures —
    // the syntactic brittleness semantic matching removes.
    WsdlOperation renamed = provided;
    renamed.name = "fetch";
    EXPECT_FALSE(operation_conforms(renamed, provided));
}

TEST(Wsdl, ServiceConformance) {
    WsdlDescription provided;
    provided.service_name = "S";
    WsdlOperation op1;
    op1.name = "a";
    WsdlOperation op2;
    op2.name = "b";
    provided.operations = {op1, op2};

    WsdlDescription required;
    required.service_name = "R";
    required.operations = {op1};
    EXPECT_TRUE(wsdl_conforms(provided, required));

    WsdlOperation op3;
    op3.name = "c";
    required.operations.push_back(op3);
    EXPECT_FALSE(wsdl_conforms(provided, required));
}

TEST(Wsdl, MalformedFails) {
    EXPECT_THROW(parse_wsdl("<bogus/>"), ParseError);
    EXPECT_THROW(parse_wsdl(R"(<wsdl name="s"><operation name="o">
        <weird name="x" type="t"/></operation></wsdl>)"),
                 ParseError);
}

}  // namespace
}  // namespace sariadne::desc
