#include "http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "support/status.h"
#include "support/strings.h"

namespace uops::server {

namespace {

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

const std::string *
HttpRequest::header(std::string_view name) const
{
    for (const auto &[key, value] : headers)
        if (iequals(key, name))
            return &value;
    return nullptr;
}

std::optional<std::string>
HttpRequest::param(const std::string &key) const
{
    auto it = query.find(key);
    if (it == query.end())
        return std::nullopt;
    return it->second;
}

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 304: return "Not Modified";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
    }
    return "Unknown";
}

std::string
percentDecode(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out += ' ';
        } else if (s[i] == '%' && i + 2 < s.size()) {
            int hi = hexValue(s[i + 1]);
            int lo = hexValue(s[i + 2]);
            fatalIf(hi < 0 || lo < 0, "http: bad percent escape in '",
                    std::string(s), "'");
            out += static_cast<char>(hi * 16 + lo);
            i += 2;
        } else {
            fatalIf(s[i] == '%', "http: truncated percent escape");
            out += s[i];
        }
    }
    return out;
}

std::map<std::string, std::string>
parseQueryString(std::string_view s)
{
    std::map<std::string, std::string> out;
    size_t pos = 0;
    while (pos < s.size()) {
        size_t amp = s.find('&', pos);
        if (amp == std::string_view::npos)
            amp = s.size();
        std::string_view piece = s.substr(pos, amp - pos);
        if (!piece.empty()) {
            size_t eq = piece.find('=');
            std::string key, value;
            if (eq == std::string_view::npos) {
                key = percentDecode(piece);
            } else {
                key = percentDecode(piece.substr(0, eq));
                value = percentDecode(piece.substr(eq + 1));
            }
            out[key] = value;
        }
        pos = amp + 1;
    }
    return out;
}

std::optional<size_t>
findHeaderEnd(std::string_view buffer)
{
    size_t pos = buffer.find("\r\n\r\n");
    if (pos == std::string_view::npos)
        return std::nullopt;
    return pos + 4;
}

HttpRequest
parseRequestHead(std::string_view head)
{
    HttpRequest request;
    size_t line_end = head.find("\r\n");
    if (line_end == std::string_view::npos)
        line_end = head.size();
    std::string_view request_line = head.substr(0, line_end);

    auto pieces = splitWhitespace(request_line);
    fatalIf(pieces.size() != 3, "http: malformed request line '",
            std::string(request_line), "'");
    request.method = pieces[0];
    request.target = pieces[1];
    fatalIf(!startsWith(pieces[2], "HTTP/1."),
            "http: unsupported protocol '", pieces[2], "'");
    request.minor_version = endsWith(pieces[2], ".0") ? 0 : 1;

    size_t q = request.target.find('?');
    if (q == std::string::npos) {
        request.path = percentDecode(request.target);
    } else {
        request.path = percentDecode(
            std::string_view(request.target).substr(0, q));
        request.query = parseQueryString(
            std::string_view(request.target).substr(q + 1));
    }

    size_t pos = line_end;
    while (pos < head.size()) {
        if (head.compare(pos, 2, "\r\n") == 0)
            pos += 2;
        size_t end = head.find("\r\n", pos);
        if (end == std::string_view::npos)
            end = head.size();
        std::string_view line = head.substr(pos, end - pos);
        pos = end;
        if (line.empty())
            continue;
        size_t colon = line.find(':');
        fatalIf(colon == std::string_view::npos,
                "http: malformed header line '", std::string(line), "'");
        request.headers.emplace_back(
            trim(line.substr(0, colon)),
            trim(line.substr(colon + 1)));
    }
    return request;
}

size_t
contentLength(const HttpRequest &request)
{
    const std::string *value = request.header("Content-Length");
    if (value == nullptr)
        return 0;
    auto parsed = parseInt(*value);
    fatalIf(!parsed || *parsed < 0, "http: bad Content-Length '",
            *value, "'");
    return static_cast<size_t>(*parsed);
}

bool
wantsKeepAlive(const HttpRequest &request)
{
    const std::string *connection = request.header("Connection");
    if (connection == nullptr)
        return request.minor_version >= 1;
    // Connection is a comma-separated token list ("TE, close");
    // scan the tokens rather than the raw value.
    for (const std::string &token : split(*connection, ',')) {
        if (iequals(token, "close"))
            return false;
        if (iequals(token, "keep-alive"))
            return true;
    }
    return request.minor_version >= 1;
}

bool
ifNoneMatchValue(std::string_view header_value, std::string_view etag)
{
    if (header_value.empty() || etag.empty())
        return false;
    size_t pos = 0;
    while (pos <= header_value.size()) {
        size_t comma = header_value.find(',', pos);
        std::string_view candidate =
            comma == std::string_view::npos
                ? header_value.substr(pos)
                : header_value.substr(pos, comma - pos);
        while (!candidate.empty() &&
               std::isspace(static_cast<unsigned char>(
                   candidate.front())))
            candidate.remove_prefix(1);
        while (!candidate.empty() &&
               std::isspace(static_cast<unsigned char>(
                   candidate.back())))
            candidate.remove_suffix(1);
        if (!candidate.empty()) {
            if (candidate == "*")
                return true;
            // Weak comparison: a W/ prefix marks the tag weak but
            // the opaque value still identifies the generation.
            if (candidate.substr(0, 2) == "W/")
                candidate.remove_prefix(2);
            if (candidate.size() >= 2 && candidate.front() == '"' &&
                candidate.back() == '"')
                candidate = candidate.substr(1, candidate.size() - 2);
            if (candidate == etag)
                return true;
        }
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    return false;
}

bool
scanFastGet(std::string_view head, FastGetView &out)
{
    if (head.substr(0, 4) != "GET ")
        return false;
    size_t sp = head.find(' ', 4);
    if (sp == std::string_view::npos)
        return false;
    out.target = head.substr(4, sp - 4);
    if (out.target.empty() || out.target.front() != '/')
        return false;
    size_t eol = head.find("\r\n", sp + 1);
    if (eol == std::string_view::npos ||
        head.substr(sp + 1, eol - sp - 1) != "HTTP/1.1")
        return false;

    auto trimmed = [](std::string_view s) {
        while (!s.empty() && std::isspace(static_cast<unsigned char>(
                                 s.front())))
            s.remove_prefix(1);
        while (!s.empty() && std::isspace(static_cast<unsigned char>(
                                 s.back())))
            s.remove_suffix(1);
        return s;
    };
    size_t pos = eol + 2;
    while (pos < head.size()) {
        size_t end = head.find("\r\n", pos);
        if (end == std::string_view::npos)
            end = head.size();
        std::string_view line = head.substr(pos, end - pos);
        pos = end + 2;
        if (line.empty())
            break;
        size_t colon = line.find(':');
        if (colon == std::string_view::npos)
            return false;
        std::string_view name = line.substr(0, colon);
        std::string_view value = trimmed(line.substr(colon + 1));
        if (iequals(name, "content-length") ||
            iequals(name, "transfer-encoding") ||
            iequals(name, "expect")) {
            // A GET carrying a body (or expecting a 100-continue)
            // needs the full framing machinery.
            return false;
        }
        if (iequals(name, "connection")) {
            if (iequals(value, "close"))
                out.connection_close = true;
            else if (!iequals(value, "keep-alive"))
                return false;  // token lists: full parser decides
        } else if (iequals(name, "if-none-match")) {
            if (!out.if_none_match.empty())
                return false;  // duplicates: full parser decides
            out.if_none_match = value;
        } else if (iequals(name, "x-request-id")) {
            if (!out.request_id.empty())
                return false;
            out.request_id = value;
        }
    }
    return true;
}

std::string
serializeResponseHead(const HttpResponse &response, bool keep_alive)
{
    std::string out;
    appendResponseHead(out, response, keep_alive);
    return out;
}

void
appendResponseHead(std::string &out, const HttpResponse &response,
                   bool keep_alive)
{
    appendResponseHead(out, response, response.bodySize(), keep_alive);
}

void
appendResponseHead(std::string &out, const HttpResponse &response,
                   size_t content_length, bool keep_alive)
{
    char digits[20];
    out += "HTTP/1.1 ";
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits,
                             response.status)
                   .ptr);
    out += ' ';
    out += statusText(response.status);
    out += "\r\n";
    if (response.status == 304) {
        // A 304 carries no body by definition; Content-Length and
        // Content-Type describe the entity the client already has,
        // so neither is sent (RFC 7232 §4.1).
    } else {
        out += "Content-Type: ";
        out += response.content_type;
        out += "\r\nContent-Length: ";
        out.append(digits,
                   std::to_chars(digits, digits + sizeof digits,
                                 content_length)
                       .ptr);
        out += "\r\n";
    }
    if (!response.etag.empty()) {
        out += "ETag: \"";
        out += response.etag;
        out += "\"\r\n";
    }
    if (response.cache_hit)
        out += "X-Cache: hit\r\n";
    if (!response.request_id.empty()) {
        out += "X-Request-Id: ";
        out += response.request_id;
        out += "\r\n";
    }
    out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                      : "Connection: close\r\n\r\n";
}

std::string
serializeResponse(const HttpResponse &response, bool keep_alive)
{
    std::string out = serializeResponseHead(response, keep_alive);
    if (response.status != 304)
        out += response.bodyView();
    return out;
}

} // namespace uops::server
