// Minimal XML document object model. This is the substrate for every
// document format in the system: ontologies, Amigo-S service descriptions,
// service requests, and the WSDL subset used by the syntactic baseline.
// Deliberately non-validating and namespace-unaware — element names carry
// their prefix verbatim — because the discovery pipeline only needs
// well-formed tree structure, and Figures 7-8 of the paper measure exactly
// this parse step.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sariadne::xml {

/// One XML element: name, attributes in document order, child elements in
/// document order, and the concatenated character data directly under it.
class XmlNode {
public:
    XmlNode() = default;
    explicit XmlNode(std::string name) : name_(std::move(name)) {}

    const std::string& name() const noexcept { return name_; }

    /// Concatenated text content directly under this element (child element
    /// text is *not* included), with surrounding whitespace trimmed.
    const std::string& text() const noexcept { return text_; }
    void set_text(std::string text) { text_ = std::move(text); }

    // --- attributes ---------------------------------------------------
    void set_attribute(std::string name, std::string value);

    /// Attribute value, or std::nullopt if absent.
    std::optional<std::string_view> attribute(std::string_view name) const noexcept;

    /// Attribute value, or `fallback` if absent.
    std::string_view attribute_or(std::string_view name,
                                  std::string_view fallback) const noexcept;

    /// Attribute value; throws LookupError if absent.
    std::string_view required_attribute(std::string_view name) const;

    const std::vector<std::pair<std::string, std::string>>& attributes()
        const noexcept {
        return attributes_;
    }

    // --- children ------------------------------------------------------
    XmlNode& add_child(XmlNode child) {
        children_.push_back(std::move(child));
        return children_.back();
    }

    const std::vector<XmlNode>& children() const noexcept { return children_; }
    std::vector<XmlNode>& children() noexcept { return children_; }

    /// First child with the given element name, or nullptr.
    const XmlNode* child(std::string_view name) const noexcept;

    /// First child with the given element name; throws LookupError if absent.
    const XmlNode& required_child(std::string_view name) const;

    /// All children with the given element name, in document order.
    std::vector<const XmlNode*> children_named(std::string_view name) const;

    /// Total number of elements in this subtree (including this node).
    std::size_t subtree_size() const noexcept;

private:
    std::string name_;
    std::string text_;
    std::vector<std::pair<std::string, std::string>> attributes_;
    std::vector<XmlNode> children_;
};

/// A parsed document: exactly one root element.
struct XmlDocument {
    XmlNode root;
};

}  // namespace sariadne::xml
