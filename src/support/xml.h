/**
 * @file
 * Minimal XML writer and reader.
 *
 * The paper stores both the instruction-set description (extracted from the
 * XED configuration) and the measurement results in machine-readable XML
 * (Sections 6.1 and 6.4). This module provides the writer used for those
 * artifacts, plus a small reader so tests can verify round-trips.
 */

#ifndef UOPS_SUPPORT_XML_H
#define UOPS_SUPPORT_XML_H

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "support/cycles.h"

namespace uops {

/** Escape the five XML special characters in @p s. */
std::string xmlEscape(const std::string &s);

/**
 * The canonical text form of a double in our XML/JSON artifacts
 * (default ostream formatting, 6 significant digits).
 *
 * Exposed so that consumers which must be bit-identical to an
 * XML-text round trip (db ingest, JSON responses) can normalize
 * values through the exact same formatting the writer uses.
 */
std::string xmlFormatDouble(double value);

/**
 * An XML element tree node.
 *
 * Attribute order is preserved (stable output); children are owned.
 */
class XmlNode
{
  public:
    explicit XmlNode(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    const std::string &text() const { return text_; }
    void setText(std::string text) { text_ = std::move(text); }

    /** Set (or overwrite) an attribute. Returns *this for chaining. */
    XmlNode &attr(const std::string &key, const std::string &value);
    XmlNode &attr(const std::string &key, long value);
    XmlNode &attr(const std::string &key, Cycles value);

    /** Look up an attribute; empty string when missing. */
    const std::string &getAttr(const std::string &key) const;
    bool hasAttr(const std::string &key) const;

    /** Append a child element and return a reference to it. */
    XmlNode &addChild(const std::string &child_name);

    /** Adopt an existing element tree as a child. */
    XmlNode &addChild(std::unique_ptr<XmlNode> child);

    const std::vector<std::unique_ptr<XmlNode>> &children() const
    {
        return children_;
    }

    /** All direct children with the given element name. */
    std::vector<const XmlNode *> childrenNamed(const std::string &n) const;

    /** First direct child with the given name, or nullptr. */
    const XmlNode *firstChild(const std::string &n) const;

    /** Attributes in insertion order. */
    const std::vector<std::pair<std::string, std::string>> &
    attrs() const
    {
        return attrs_;
    }

    /** Serialize with 2-space indentation. */
    void write(std::ostream &os, int indent = 0) const;

    /** Serialize to a string, including the XML declaration. */
    std::string toString() const;

  private:
    std::string name_;
    std::string text_;
    std::vector<std::pair<std::string, std::string>> attrs_;
    std::vector<std::unique_ptr<XmlNode>> children_;
};

/**
 * Parse an XML document (subset: elements, attributes, text, comments).
 *
 * @throws FatalError on malformed input.
 */
std::unique_ptr<XmlNode> parseXml(const std::string &text);

} // namespace uops

#endif // UOPS_SUPPORT_XML_H
