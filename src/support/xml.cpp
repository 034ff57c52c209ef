#include "xml.h"

#include <cctype>
#include <sstream>

#include "status.h"

namespace uops {

std::string
xmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: out += c;
        }
    }
    return out;
}

namespace {

std::string
xmlUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    size_t i = 0;
    while (i < s.size()) {
        if (s[i] != '&') {
            out += s[i++];
            continue;
        }
        size_t semi = s.find(';', i);
        if (semi == std::string::npos)
            fatal("xml: unterminated entity in '", s, "'");
        std::string entity = s.substr(i + 1, semi - i - 1);
        if (entity == "amp")
            out += '&';
        else if (entity == "lt")
            out += '<';
        else if (entity == "gt")
            out += '>';
        else if (entity == "quot")
            out += '"';
        else if (entity == "apos")
            out += '\'';
        else
            fatal("xml: unknown entity '&", entity, ";'");
        i = semi + 1;
    }
    return out;
}

} // namespace

XmlNode &
XmlNode::attr(const std::string &key, const std::string &value)
{
    for (auto &kv : attrs_) {
        if (kv.first == key) {
            kv.second = value;
            return *this;
        }
    }
    attrs_.emplace_back(key, value);
    return *this;
}

XmlNode &
XmlNode::attr(const std::string &key, long value)
{
    return attr(key, std::to_string(value));
}

std::string
xmlFormatDouble(double value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

XmlNode &
XmlNode::attr(const std::string &key, Cycles value)
{
    return attr(key, value.str());
}

const std::string &
XmlNode::getAttr(const std::string &key) const
{
    static const std::string empty;
    for (const auto &kv : attrs_)
        if (kv.first == key)
            return kv.second;
    return empty;
}

bool
XmlNode::hasAttr(const std::string &key) const
{
    for (const auto &kv : attrs_)
        if (kv.first == key)
            return true;
    return false;
}

XmlNode &
XmlNode::addChild(const std::string &child_name)
{
    children_.push_back(std::make_unique<XmlNode>(child_name));
    return *children_.back();
}

XmlNode &
XmlNode::addChild(std::unique_ptr<XmlNode> child)
{
    panicIf(!child, "XmlNode::addChild: null child");
    children_.push_back(std::move(child));
    return *children_.back();
}

std::vector<const XmlNode *>
XmlNode::childrenNamed(const std::string &n) const
{
    std::vector<const XmlNode *> out;
    for (const auto &c : children_)
        if (c->name() == n)
            out.push_back(c.get());
    return out;
}

const XmlNode *
XmlNode::firstChild(const std::string &n) const
{
    for (const auto &c : children_)
        if (c->name() == n)
            return c.get();
    return nullptr;
}

void
XmlNode::write(std::ostream &os, int indent) const
{
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    os << pad << '<' << name_;
    for (const auto &kv : attrs_)
        os << ' ' << kv.first << "=\"" << xmlEscape(kv.second) << '"';
    if (children_.empty() && text_.empty()) {
        os << "/>\n";
        return;
    }
    os << '>';
    if (!text_.empty())
        os << xmlEscape(text_);
    if (!children_.empty()) {
        os << '\n';
        for (const auto &c : children_)
            c->write(os, indent + 1);
        os << pad;
    }
    os << "</" << name_ << ">\n";
}

std::string
XmlNode::toString() const
{
    std::ostringstream os;
    os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
    write(os, 0);
    return os.str();
}

namespace {

/** Recursive-descent parser over a raw XML string. */
class XmlParser
{
  public:
    explicit XmlParser(const std::string &text) : text_(text) {}

    std::unique_ptr<XmlNode>
    parse()
    {
        skipProlog();
        auto root = parseElement();
        skipWhitespaceAndComments();
        fatalIf(pos_ != text_.size(), "xml: trailing content at offset ",
                pos_);
        return root;
    }

  private:
    void
    skipWhitespaceAndComments()
    {
        while (pos_ < text_.size()) {
            if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            } else if (text_.compare(pos_, 4, "<!--") == 0) {
                size_t end = text_.find("-->", pos_ + 4);
                fatalIf(end == std::string::npos,
                        "xml: unterminated comment");
                pos_ = end + 3;
            } else {
                break;
            }
        }
    }

    void
    skipProlog()
    {
        skipWhitespaceAndComments();
        if (text_.compare(pos_, 5, "<?xml") == 0) {
            size_t end = text_.find("?>", pos_);
            fatalIf(end == std::string::npos, "xml: unterminated prolog");
            pos_ = end + 2;
        }
        skipWhitespaceAndComments();
    }

    std::string
    parseName()
    {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '-' ||
                text_[pos_] == ':' || text_[pos_] == '.'))
            ++pos_;
        fatalIf(pos_ == start, "xml: expected name at offset ", start);
        return text_.substr(start, pos_ - start);
    }

    void
    skipSpaces()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    std::unique_ptr<XmlNode>
    parseElement()
    {
        fatalIf(pos_ >= text_.size() || text_[pos_] != '<',
                "xml: expected '<' at offset ", pos_);
        ++pos_;
        auto node = std::make_unique<XmlNode>(parseName());
        // Attributes.
        while (true) {
            skipSpaces();
            fatalIf(pos_ >= text_.size(), "xml: unexpected end of input");
            if (text_[pos_] == '/' || text_[pos_] == '>')
                break;
            std::string key = parseName();
            skipSpaces();
            fatalIf(pos_ >= text_.size() || text_[pos_] != '=',
                    "xml: expected '=' after attribute '", key, "'");
            ++pos_;
            skipSpaces();
            fatalIf(pos_ >= text_.size() || text_[pos_] != '"',
                    "xml: expected '\"' in attribute '", key, "'");
            ++pos_;
            size_t end = text_.find('"', pos_);
            fatalIf(end == std::string::npos,
                    "xml: unterminated attribute value");
            node->attr(key, xmlUnescape(text_.substr(pos_, end - pos_)));
            pos_ = end + 1;
        }
        if (text_[pos_] == '/') {
            ++pos_;
            fatalIf(pos_ >= text_.size() || text_[pos_] != '>',
                    "xml: expected '>' after '/'");
            ++pos_;
            return node;
        }
        ++pos_; // consume '>'
        // Content: text and child elements.
        std::string text_content;
        while (true) {
            fatalIf(pos_ >= text_.size(), "xml: unterminated element <",
                    node->name(), ">");
            if (text_[pos_] == '<') {
                if (text_.compare(pos_, 4, "<!--") == 0) {
                    size_t end = text_.find("-->", pos_ + 4);
                    fatalIf(end == std::string::npos,
                            "xml: unterminated comment");
                    pos_ = end + 3;
                    continue;
                }
                if (text_[pos_ + 1] == '/') {
                    pos_ += 2;
                    std::string close = parseName();
                    fatalIf(close != node->name(), "xml: mismatched </",
                            close, "> for <", node->name(), ">");
                    skipSpaces();
                    fatalIf(pos_ >= text_.size() || text_[pos_] != '>',
                            "xml: expected '>' in closing tag");
                    ++pos_;
                    break;
                }
                node->addChild(parseElement());
            } else {
                text_content += text_[pos_++];
            }
        }
        // Keep text only when non-whitespace content exists.
        std::string stripped;
        for (char c : text_content)
            if (!std::isspace(static_cast<unsigned char>(c)))
                stripped += c;
        if (!stripped.empty())
            node->setText(xmlUnescape(text_content));
        return node;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

std::unique_ptr<XmlNode>
parseXml(const std::string &text)
{
    return XmlParser(text).parse();
}

} // namespace uops
