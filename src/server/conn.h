/**
 * @file
 * Per-connection HTTP/1.1 framing state machine for the reactor.
 *
 * A Conn owns everything about one client connection *except* the
 * socket: the inbound byte buffer, the request parser (built on the
 * findHeaderEnd/parseRequestHead/contentLength primitives of
 * server/http.h), the keep-alive/pipelining bookkeeping, and the
 * outbound chunk queue.
 * Keeping it socket-free means the whole framing machine — partial
 * heads, pipelined batches, oversize refusals, shared-body gather
 * output — is unit-testable by feeding bytes in and reading iovecs
 * out, with no fd in sight.
 *
 * Output is a queue of chunks, each a serialized response head
 * (possibly with an owned body appended) plus an optional shared
 * body (HttpResponse::blob). Shared bodies are never copied into the
 * connection: the chunk holds the shared_ptr and gatherOutput()
 * exposes the bytes as a second iovec, so a reactor thread writes
 * header + body with one sendmsg and zero body copies, and the body
 * stays alive for exactly as long as some connection still needs it
 * — even across a catalog hot-swap.
 *
 * The reactor-side bookkeeping fields (busy, deadlines, epoll
 * interest mirrors) are plain members: a Conn is owned by exactly
 * one reactor thread and never shared, so none of this needs
 * atomics.
 */

#ifndef UOPS_SERVER_CONN_H
#define UOPS_SERVER_CONN_H

#include <chrono>
#include <deque>
#include <memory>
#include <string>

#include <sys/uio.h>

#include "server/http.h"

namespace uops::server {

class Conn
{
  public:
    struct Limits
    {
        size_t max_request_bytes = 1 << 20;
        size_t max_requests = 100;
    };

    enum class Parse {
        NeedMore,  ///< no complete request buffered yet
        Ready,     ///< one request extracted from the buffer
        Refuse,    ///< transport-level refusal; close after flush
    };

    struct ParseResult
    {
        Parse kind = Parse::NeedMore;
        int refuse_status = 0;
        std::string refuse_message;
        /** On Refuse: the request head parsed far enough to carry a
         *  usable X-Request-Id (written to the out-param). */
        bool have_head = false;
    };

    explicit Conn(Limits limits) : limits_(limits) {}

    // ---- inbound ----------------------------------------------------

    void appendInput(const char *data, size_t n)
    {
        // Compact once per socket read: consumed requests advance a
        // cursor instead of erasing (a memmove per pipelined
        // request); the single erase here amortizes it per recv.
        if (in_off_ > 0) {
            in_.erase(0, in_off_);
            in_off_ = 0;
        }
        in_.append(data, n);
    }
    size_t inputSize() const { return in_.size() - in_off_; }

    /** Try to extract the next complete request from the buffer.
     *  Oversize buffers and bodies are 413, malformed heads and bad
     *  Content-Length are 400, and a pipelined successor stays
     *  buffered. Ready counts against the per-connection budget. */
    ParseResult next(HttpRequest &request);

    enum class Raw { NoMatch, Served };

    /**
     * Zero-parse fast lane, tried before next(): when the buffer
     * fronts a complete bodiless HTTP/1.1 GET (scanFastGet) and
     * @p serve — bool(const FastGetView &, HttpResponse &) — can
     * answer it from precomputed state, the response is queued, the
     * request consumed and counted against the budget, all without
     * materializing an HttpRequest. NoMatch leaves the buffer
     * untouched; the caller falls back to next(), which remains the
     * semantic reference (refusals, bodies, HTTP/1.0, partial-input
     * bookkeeping).
     */
    template <typename ServeFn>
    Raw tryRaw(bool draining, ServeFn &&serve)
    {
        std::string_view buffered = pending();
        if (buffered.empty() ||
            buffered.size() > limits_.max_request_bytes)
            return Raw::NoMatch;
        std::optional<size_t> head_end = findHeaderEnd(buffered);
        if (!head_end)
            return Raw::NoMatch;
        FastGetView view;
        if (!scanFastGet(buffered.substr(0, *head_end), view))
            return Raw::NoMatch;
        HttpResponse response;
        if (!serve(view, response))
            return Raw::NoMatch;
        // Mirrors next(): count before the keep-alive decision so
        // the budget check matches keepAlive()'s.
        ++served_;
        bool keep_alive = !view.connection_close && !draining &&
                          served_ < limits_.max_requests;
        queueResponse(response, keep_alive);
        in_off_ += *head_end;
        partial_request_ = false;
        return Raw::Served;
    }

    /** True while the buffer holds the front of an *incomplete*
     *  request (the slow-loris case) — the reactor bounds this with
     *  the receive deadline rather than a blocked worker. */
    bool partialRequest() const { return partial_request_; }

    /** Keep-alive decision for the request just extracted (call
     *  after next() returned Ready, before queueing/dispatching). */
    bool keepAlive(const HttpRequest &request, bool draining) const;

    size_t served() const { return served_; }

    // ---- outbound ---------------------------------------------------

    /** Serialize @p response onto the output queue. Blob-backed
     *  bodies are queued by reference (shared_ptr), never copied;
     *  304s queue the head alone. */
    void queueResponse(const HttpResponse &response, bool keep_alive);

    bool hasOutput() const { return !out_.empty(); }

    /** Fill up to @p max_iov iovecs with the pending output, resumed
     *  at the unsent offset. Returns the count filled. */
    size_t gatherOutput(struct iovec *iov, size_t max_iov) const;

    /** Advance past @p bytes successfully written. */
    void consumeOutput(size_t bytes);

    // ---- reactor bookkeeping (single-owner, no locking) -------------

    int fd = -1;
    uint64_t id = 0;

    /** One request is in flight on the worker pool; parsing pauses
     *  until its completion lands (responses stay in order). */
    bool busy = false;
    /** Keep-alive decision for the in-flight request. */
    bool pending_keep_alive = false;
    bool close_after_flush = false;

    /** Mirrors of the current epoll interest set, to skip redundant
     *  epoll_ctl calls. */
    bool want_write = false;
    bool reads_paused = false;

    /** Absolute receive/idle/send-stall deadline; cleared (no
     *  timeout) while a pool request is in flight. */
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;

  private:
    struct Chunk
    {
        std::string bytes;  ///< head, plus owned body when no blob
        std::shared_ptr<const std::string> blob;  ///< optional body

        size_t size() const
        {
            return bytes.size() + (blob ? blob->size() : 0);
        }
    };

    /** Unconsumed slice of the input buffer. */
    std::string_view pending() const
    {
        return std::string_view(in_).substr(in_off_);
    }

    Limits limits_;
    std::string in_;
    size_t in_off_ = 0;  ///< consumed prefix of in_ (lazy erase)
    std::deque<Chunk> out_;
    size_t out_offset_ = 0;  ///< sent bytes of the front chunk
    size_t served_ = 0;
    bool partial_request_ = false;
};

} // namespace uops::server

#endif // UOPS_SERVER_CONN_H
