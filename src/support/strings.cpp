#include "strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace uops {

std::string
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return std::string(s.substr(begin, end - begin));
}

std::vector<std::string>
split(std::string_view s, char sep, bool trim_pieces, bool keep_empty)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t pos = s.find(sep, start);
        std::string_view piece = (pos == std::string_view::npos)
                                     ? s.substr(start)
                                     : s.substr(start, pos - start);
        std::string item =
            trim_pieces ? trim(piece) : std::string(piece);
        if (keep_empty || !item.empty())
            out.push_back(std::move(item));
        if (pos == std::string_view::npos)
            break;
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
toUpper(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
    });
    return out;
}

std::optional<long>
parseInt(std::string_view s)
{
    std::string t = trim(s);
    if (t.empty())
        return std::nullopt;
    long value = 0;
    auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size())
        return std::nullopt;
    return value;
}

std::optional<double>
parseDouble(std::string_view s)
{
    std::string t = trim(s);
    if (t.empty())
        return std::nullopt;
    char *end = nullptr;
    double value = std::strtod(t.c_str(), &end);
    if (end != t.c_str() + t.size())
        return std::nullopt;
    return value;
}

} // namespace uops
