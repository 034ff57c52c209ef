#include "json.h"

#include "support/obs/log.h"
#include "support/status.h"
#include "support/xml.h"

namespace uops::server {

void
JsonWriter::beforeValue()
{
    if (stack_.empty())
        return;
    if (stack_.back() == '{') {
        panicIf(!pending_key_, "JsonWriter: value without key");
        pending_key_ = false;
        return;
    }
    if (has_item_.back())
        out_ += ',';
    has_item_.back() = true;
}

void
JsonWriter::push(char scope)
{
    beforeValue();
    out_ += scope;
    stack_.push_back(scope);
    has_item_.push_back(false);
}

void
JsonWriter::pop(char scope)
{
    panicIf(stack_.empty() || stack_.back() != scope,
            "JsonWriter: unbalanced scope");
    panicIf(pending_key_, "JsonWriter: dangling key");
    out_ += scope == '{' ? '}' : ']';
    stack_.pop_back();
    has_item_.pop_back();
}

JsonWriter &
JsonWriter::beginObject()
{
    push('{');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    pop('{');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    push('[');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    pop('[');
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    panicIf(stack_.empty() || stack_.back() != '{',
            "JsonWriter: key outside object");
    panicIf(pending_key_, "JsonWriter: two keys in a row");
    if (has_item_.back())
        out_ += ',';
    has_item_.back() = true;
    out_ += '"';
    obs::appendJsonEscaped(out_, k);
    out_ += "\":";
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    out_ += '"';
    obs::appendJsonEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    out_ += xmlFormatDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(Cycles v)
{
    beforeValue();
    out_ += v.str();
    return *this;
}

JsonWriter &
JsonWriter::value(long v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<long>(v));
}

JsonWriter &
JsonWriter::value(size_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::valueNull()
{
    beforeValue();
    out_ += "null";
    return *this;
}

std::string
JsonWriter::str() &&
{
    panicIf(!stack_.empty(), "JsonWriter: unclosed scopes");
    return std::move(out_);
}

} // namespace uops::server
