/**
 * @file
 * HTTP/1.1 message types and wire parsing for the serving layer.
 *
 * Deliberately tiny: the subset a JSON query API needs. Requests are
 * parsed from a buffered head (everything up to the blank line) plus
 * a Content-Length-delimited body; responses always carry an explicit
 * Content-Length and a Connection header, so the client always knows
 * both the body frame and the connection lifecycle. HTTP/1.1
 * persistent connections are honored (wantsKeepAlive); transport
 * (sockets) is separate in http_server.h so the request router
 * (service.h) can be exercised in tests without opening a port.
 */

#ifndef UOPS_SERVER_HTTP_H
#define UOPS_SERVER_HTTP_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uops::server {

struct HttpRequest
{
    std::string method;   ///< "GET", "POST", ...
    std::string target;   ///< Raw request target, e.g. "/search?a=b".
    std::string path;     ///< Decoded path, e.g. "/search".
    std::map<std::string, std::string> query; ///< Decoded parameters.
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Protocol minor version: 1 for HTTP/1.1, 0 for HTTP/1.0. */
    int minor_version = 1;

    /** Case-insensitive header lookup; nullptr when absent. */
    const std::string *header(std::string_view name) const;

    /** Query parameter; empty optional when absent. */
    std::optional<std::string> param(const std::string &key) const;
};

struct HttpResponse
{
    int status = 200;
    /** Always a string literal (static storage), so a view avoids a
     *  heap allocation per constructed response — "application/json"
     *  is one byte past the small-string capacity. */
    std::string_view content_type = "application/json";
    std::string body;

    /** Shared body bytes: when set, this — not @p body — is the
     *  payload. The /uarchs body and the /instr renders point here so
     *  a response, its response-cache entry, and every concurrent
     *  sender share one buffer instead of copying it. Invariant: body
     *  is empty whenever blob is set. */
    std::shared_ptr<const std::string> blob;

    /** Entity tag (unquoted) emitted as `ETag: "<value>"`. Set on
     *  /uarchs and /instr bodies: the value derives from the generation's
     *  shard content hashes, so If-None-Match revalidation is exact. */
    std::string etag;

    /** Set when served from the response cache (adds X-Cache: hit). */
    bool cache_hit = false;

    /** Correlation ID echoed as X-Request-Id when non-empty. Always
     *  per-request: the service assigns it after the response cache
     *  copy is taken, so a cached body never replays another
     *  request's ID. */
    std::string request_id;

    /** The payload bytes, wherever they live. */
    std::string_view
    bodyView() const
    {
        return blob ? std::string_view(*blob)
                    : std::string_view(body);
    }

    size_t
    bodySize() const
    {
        return blob ? blob->size() : body.size();
    }
};

/** Reason phrase for the status codes the server emits. */
const char *statusText(int status);

/** Decode %XX escapes and '+' (as space) in a URL component. */
std::string percentDecode(std::string_view s);

/** Parse "a=1&b=2" into decoded key/value pairs. */
std::map<std::string, std::string> parseQueryString(std::string_view s);

/**
 * Offset just past the "\r\n\r\n" terminating the request head, or
 * nullopt while more bytes are needed.
 */
std::optional<size_t> findHeaderEnd(std::string_view buffer);

/**
 * Parse a request head (request line + headers, excluding the blank
 * line). Fills everything but the body.
 *
 * @throws FatalError on malformed input (caller answers 400).
 */
HttpRequest parseRequestHead(std::string_view head);

/** Declared Content-Length (0 when absent). @throws FatalError. */
size_t contentLength(const HttpRequest &request);

/**
 * Whether the client asked to keep the connection open: HTTP/1.1
 * defaults to persistent unless `Connection: close`; HTTP/1.0 is
 * persistent only with an explicit `Connection: keep-alive`. Header
 * values compare case-insensitively.
 */
bool wantsKeepAlive(const HttpRequest &request);

/**
 * Serialize status line, headers and body for the wire. @p keep_alive
 * selects the Connection header; the one-argument form closes (every
 * error path and the final response of a connection use it).
 */
std::string serializeResponse(const HttpResponse &response,
                              bool keep_alive = false);

/**
 * The head alone: status line + headers + terminating blank line, no
 * body bytes. The reactor write path pairs this with the response's
 * (possibly shared) body in one writev, so a shared body is never
 * copied per request. serializeResponse == head + bodyView.
 */
std::string serializeResponseHead(const HttpResponse &response,
                                  bool keep_alive);

/**
 * The head alone, appended to @p out instead of returned — the
 * reactor's output buffers reuse one growing string across a
 * pipelined batch, so head serialization allocates only when the
 * buffer actually grows.
 */
void appendResponseHead(std::string &out, const HttpResponse &response,
                        bool keep_alive);

/** The same head with @p content_length in place of the response's
 *  body size (a 304 still omits it). */
void appendResponseHead(std::string &out, const HttpResponse &response,
                        size_t content_length, bool keep_alive);

/** Whether an If-None-Match header value (empty = absent) matches
 *  @p etag (unquoted value): handles `*`, comma-separated candidate
 *  lists, quoted tags, and weak `W/` prefixes (weak comparison — fine
 *  for revalidation). */
bool ifNoneMatchValue(std::string_view header_value,
                      std::string_view etag);

/**
 * Zero-allocation view of a simple GET head, produced by
 * scanFastGet(). Every view points into the scanned buffer; it is
 * valid only until the buffer is consumed.
 */
struct FastGetView
{
    std::string_view target;         ///< raw request target
    std::string_view if_none_match;  ///< raw value; empty = absent
    std::string_view request_id;     ///< X-Request-Id; empty = absent
    bool connection_close = false;
};

/**
 * Try to read @p head (a complete request head, blank line included)
 * as a plain HTTP/1.1 GET without materializing an HttpRequest: no
 * percent decoding, no query map, no header vector — just views.
 *
 * Deliberately narrow. Anything this scanner is not certain about —
 * a non-GET method, HTTP/1.0, a body (Content-Length or
 * Transfer-Encoding present), Expect, Connection token lists,
 * duplicate tracked headers, malformed lines — returns false, and
 * the caller takes the full parseRequestHead() path, which remains
 * the semantic reference. A true result never changes what the full
 * parser would have concluded; it only skips its allocations.
 */
bool scanFastGet(std::string_view head, FastGetView &out);

} // namespace uops::server

#endif // UOPS_SERVER_HTTP_H
