/**
 * @file
 * Test-side parsers for the observability surfaces: a strict
 * Prometheus text-exposition reader and a minimal JSON validity
 * checker for the structured log's JSON-lines output.
 *
 * The exposition parser is deliberately unforgiving — unknown line
 * shapes, malformed names, or non-numeric values fail the test via
 * ADD_FAILURE and are dropped — so the conformance tests prove the
 * renderer emits only what a real scraper would accept.
 */

#ifndef UOPS_TESTS_OBS_UTIL_H
#define UOPS_TESTS_OBS_UTIL_H

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace uops::test {

/** One parsed exposition, keyed by the full series id — metric name
 *  plus canonical label block, e.g.
 *  `uops_http_requests_total{endpoint="/predict"}`. */
struct Exposition
{
    std::map<std::string, double> series;
    std::map<std::string, std::string> help;   ///< by family name
    std::map<std::string, std::string> type;   ///< by family name
};

inline bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Parse Prometheus text exposition format; malformed input records
 *  a gtest failure and skips the line. */
inline Exposition
parseExposition(const std::string &text)
{
    Exposition out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;

        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            bool is_help = line[2] == 'H';
            std::string rest = line.substr(7);
            size_t space = rest.find(' ');
            if (space == std::string::npos) {
                ADD_FAILURE() << "bad comment line: " << line;
                continue;
            }
            std::string family = rest.substr(0, space);
            std::string payload = rest.substr(space + 1);
            if (!validMetricName(family)) {
                ADD_FAILURE() << "bad family name: " << line;
                continue;
            }
            if (is_help)
                out.help[family] = payload;
            else
                out.type[family] = payload;
            continue;
        }
        if (line[0] == '#')
            continue;   // other comments are legal and ignored

        // Sample line: name[{labels}] value
        size_t name_end = line.find_first_of("{ ");
        if (name_end == std::string::npos) {
            ADD_FAILURE() << "bad sample line: " << line;
            continue;
        }
        std::string name = line.substr(0, name_end);
        if (!validMetricName(name)) {
            ADD_FAILURE() << "bad metric name: " << line;
            continue;
        }
        std::string key = name;
        size_t cursor = name_end;
        if (line[cursor] == '{') {
            // Walk the label block honoring escapes inside quoted
            // values; the raw block (brace to brace) is the key.
            size_t scan = cursor + 1;
            bool in_quotes = false;
            while (scan < line.size()) {
                char c = line[scan];
                if (in_quotes && c == '\\') {
                    scan += 2;
                    continue;
                }
                if (c == '"')
                    in_quotes = !in_quotes;
                else if (!in_quotes && c == '}')
                    break;
                ++scan;
            }
            if (scan >= line.size()) {
                ADD_FAILURE() << "unterminated labels: " << line;
                continue;
            }
            key = line.substr(0, scan + 1);
            cursor = scan + 1;
        }
        if (cursor >= line.size() || line[cursor] != ' ') {
            ADD_FAILURE() << "missing value: " << line;
            continue;
        }
        std::string value_text = line.substr(cursor + 1);
        double value;
        if (value_text == "+Inf") {
            value = HUGE_VAL;
        } else {
            char *end = nullptr;
            value = std::strtod(value_text.c_str(), &end);
            if (end == nullptr || *end != '\0') {
                ADD_FAILURE()
                    << "bad sample value: " << line;
                continue;
            }
        }
        if (!out.series.emplace(key, value).second)
            ADD_FAILURE() << "duplicate series: " << key;
    }
    return out;
}

/** The sample of @p family{endpoint="@p endpoint"}, one of the
 *  per-endpoint series /metrics renders; a missing series fails the
 *  test (and reads -1). */
inline double
endpointSample(const Exposition &parsed, const std::string &family,
               const std::string &endpoint)
{
    std::string key = family + "{endpoint=\"" + endpoint + "\"}";
    auto it = parsed.series.find(key);
    if (it == parsed.series.end()) {
        ADD_FAILURE() << "missing series: " << key;
        return -1;
    }
    return it->second;
}

/**
 * Minimal JSON syntax check for one log line: balanced structure,
 * valid strings/escapes/numbers/literals. Accepts exactly one
 * top-level object. Not a full validator — enough to prove the
 * logger never emits a line a JSON parser would reject.
 */
inline bool
isValidJsonObject(const std::string &line)
{
    size_t pos = 0;
    auto skip_ws = [&] {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
    };
    std::function<bool()> value;   // forward declaration

    auto string_lit = [&]() -> bool {
        if (pos >= line.size() || line[pos] != '"')
            return false;
        ++pos;
        while (pos < line.size() && line[pos] != '"') {
            unsigned char c =
                static_cast<unsigned char>(line[pos]);
            if (c < 0x20)
                return false;   // raw control char breaks JSON
            if (line[pos] == '\\') {
                if (pos + 1 >= line.size())
                    return false;
                char esc = line[pos + 1];
                if (esc == 'u') {
                    if (pos + 5 >= line.size())
                        return false;
                    for (size_t i = 2; i <= 5; ++i)
                        if (!std::isxdigit(static_cast<unsigned char>(
                                line[pos + i])))
                            return false;
                    pos += 6;
                    continue;
                }
                if (std::string("\"\\/bfnrt").find(esc) ==
                    std::string::npos)
                    return false;
                pos += 2;
                continue;
            }
            ++pos;
        }
        if (pos >= line.size())
            return false;
        ++pos;   // closing quote
        return true;
    };

    auto number_lit = [&]() -> bool {
        size_t start = pos;
        if (pos < line.size() && line[pos] == '-')
            ++pos;
        while (pos < line.size() &&
               (std::isdigit(static_cast<unsigned char>(line[pos])) ||
                line[pos] == '.' || line[pos] == 'e' ||
                line[pos] == 'E' || line[pos] == '+' ||
                line[pos] == '-'))
            ++pos;
        return pos > start;
    };

    std::function<bool()> object = [&]() -> bool {
        if (pos >= line.size() || line[pos] != '{')
            return false;
        ++pos;
        skip_ws();
        if (pos < line.size() && line[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skip_ws();
            if (!string_lit())
                return false;
            skip_ws();
            if (pos >= line.size() || line[pos] != ':')
                return false;
            ++pos;
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (pos < line.size() && line[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= line.size() || line[pos] != '}')
            return false;
        ++pos;
        return true;
    };

    value = [&]() -> bool {
        skip_ws();
        if (pos >= line.size())
            return false;
        char c = line[pos];
        if (c == '"')
            return string_lit();
        if (c == '{')
            return object();
        if (c == '[') {
            ++pos;
            skip_ws();
            if (pos < line.size() && line[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                skip_ws();
                if (pos < line.size() && line[pos] == ',') {
                    ++pos;
                    continue;
                }
                break;
            }
            if (pos >= line.size() || line[pos] != ']')
                return false;
            ++pos;
            return true;
        }
        auto literal = [&](const char *word) {
            size_t n = std::string(word).size();
            if (line.compare(pos, n, word) != 0)
                return false;
            pos += n;
            return true;
        };
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number_lit();
    };

    skip_ws();
    if (!object())
        return false;
    skip_ws();
    return pos == line.size();
}

} // namespace uops::test

#endif // UOPS_TESTS_OBS_UTIL_H
