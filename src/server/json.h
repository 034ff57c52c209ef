/**
 * @file
 * Minimal JSON writer for the HTTP serving layer.
 *
 * Mirrors support/xml.h in spirit: no external dependency, stable
 * deterministic output (keys in call order, doubles in the same
 * canonical text form the XML artifacts use), just enough for the
 * server's response bodies. Writing only — the server never needs to
 * parse JSON.
 */

#ifndef UOPS_SERVER_JSON_H
#define UOPS_SERVER_JSON_H

#include <string>
#include <string_view>
#include <vector>

#include "support/cycles.h"

namespace uops::server {

/**
 * Streaming JSON builder with explicit begin/end scopes.
 *
 * Comma placement is handled internally; key() must precede every
 * value inside an object. Misuse (value without key inside an object,
 * unbalanced scopes at str()) panics — server handlers are the only
 * callers, so a malformed document is a bug, not bad user input.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    /** Fixed-point cycle values render their exact decimal form —
     *  no double conversion anywhere between the DB and the wire. */
    JsonWriter &value(Cycles v);
    JsonWriter &value(long v);
    JsonWriter &value(int v);
    JsonWriter &value(size_t v);
    JsonWriter &value(bool v);
    JsonWriter &valueNull();

    /** key(k) + value(v) in one call. */
    template <typename T>
    JsonWriter &
    member(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Finish and return the document (checks balanced scopes). */
    std::string str() &&;

  private:
    void beforeValue();
    void push(char scope);
    void pop(char scope);

    std::string out_;
    std::vector<char> stack_;     ///< '{' or '['
    std::vector<bool> has_item_;  ///< parallel: scope has a member
    bool pending_key_ = false;
};

} // namespace uops::server

#endif // UOPS_SERVER_JSON_H
