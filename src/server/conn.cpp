#include "conn.h"

namespace uops::server {

Conn::ParseResult
Conn::next(HttpRequest &request)
{
    ParseResult result;
    std::string_view buffered = pending();
    std::optional<size_t> head_end = findHeaderEnd(buffered);
    if (!head_end) {
        if (buffered.size() > limits_.max_request_bytes) {
            result.kind = Parse::Refuse;
            result.refuse_status = 413;
            result.refuse_message = "request too large";
            return result;
        }
        partial_request_ = !buffered.empty();
        return result;
    }

    HttpRequest parsed;
    try {
        parsed = parseRequestHead(buffered.substr(0, *head_end));
    } catch (const std::exception &e) {
        result.kind = Parse::Refuse;
        result.refuse_status = 400;
        result.refuse_message = e.what();
        return result;
    }

    size_t body_bytes = 0;
    try {
        body_bytes = contentLength(parsed);
    } catch (const std::exception &e) {
        result.kind = Parse::Refuse;
        result.refuse_status = 400;
        result.refuse_message = e.what();
        result.have_head = true;
        request = std::move(parsed);
        return result;
    }
    if (body_bytes > limits_.max_request_bytes) {
        result.kind = Parse::Refuse;
        result.refuse_status = 413;
        result.refuse_message = "body too large";
        result.have_head = true;
        request = std::move(parsed);
        return result;
    }
    if (buffered.size() - *head_end < body_bytes) {
        partial_request_ = true;
        return result;  // NeedMore: body still arriving
    }

    parsed.body = buffered.substr(*head_end, body_bytes);
    // Consume exactly this request; a pipelined successor stays
    // buffered for the next call.
    in_off_ += *head_end + body_bytes;
    partial_request_ = false;
    ++served_;
    request = std::move(parsed);
    result.kind = Parse::Ready;
    return result;
}

bool
Conn::keepAlive(const HttpRequest &request, bool draining) const
{
    // served_ already counts the request being decided: the
    // connection's last budgeted request closes it.
    return wantsKeepAlive(request) && !draining &&
           served_ < limits_.max_requests;
}

void
Conn::queueResponse(const HttpResponse &response, bool keep_alive)
{
    // Coalesce into the tail chunk while it carries no blob: a
    // pipelined batch of small responses becomes one contiguous
    // buffer (one allocation amortized across the batch, one iovec
    // on the wire). A blob ends its chunk — the shared body is
    // referenced, never copied — so the next response opens a fresh
    // one.
    if (out_.empty() || out_.back().blob) {
        // One allocation for the new chunk, not one per doubling as
        // the head grows from empty: a head with an ETag and a request
        // ID is about 200 bytes.
        out_.emplace_back();
        out_.back().bytes.reserve(
            256 + (response.blob ? 0 : response.body.size()));
    }
    Chunk &tail = out_.back();
    appendResponseHead(tail.bytes, response, keep_alive);
    if (response.status != 304) {
        if (response.blob)
            tail.blob = response.blob;
        else
            tail.bytes += response.body;
    }
    if (!keep_alive)
        close_after_flush = true;
}

size_t
Conn::gatherOutput(struct iovec *iov, size_t max_iov) const
{
    size_t n = 0;
    size_t skip = out_offset_;
    for (const Chunk &chunk : out_) {
        if (n == max_iov)
            break;
        if (skip < chunk.bytes.size()) {
            iov[n].iov_base =
                const_cast<char *>(chunk.bytes.data() + skip);
            iov[n].iov_len = chunk.bytes.size() - skip;
            ++n;
            skip = 0;
        } else {
            skip -= chunk.bytes.size();
        }
        if (chunk.blob) {
            if (n == max_iov)
                break;
            if (skip < chunk.blob->size()) {
                iov[n].iov_base =
                    const_cast<char *>(chunk.blob->data() + skip);
                iov[n].iov_len = chunk.blob->size() - skip;
                ++n;
                skip = 0;
            } else {
                skip -= chunk.blob->size();
            }
        }
    }
    return n;
}

void
Conn::consumeOutput(size_t bytes)
{
    bytes += out_offset_;
    out_offset_ = 0;
    while (!out_.empty()) {
        size_t front = out_.front().size();
        if (bytes < front) {
            out_offset_ = bytes;
            return;
        }
        bytes -= front;
        out_.pop_front();
    }
}

} // namespace uops::server
