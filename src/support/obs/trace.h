/**
 * @file
 * Request tracing on the monotonic clock: trace IDs, in-request span
 * sets, and a Chrome trace-event profile sink.
 *
 * newTraceId() mints 16-hex-char process-unique IDs; the server
 * propagates them via X-Request-Id (client-supplied IDs are echoed,
 * missing ones are minted) so every response and every access-log
 * line can be joined on one key.
 *
 * A SpanSet collects the timed phases of one request (parse ->
 * assemble -> simulate -> analysis -> render for /predict). It is
 * single-threaded by design — one request, one handler thread — and
 * records each span as {name, depth, start_us, dur_us} with start
 * relative to the SpanSet's creation on std::chrono::steady_clock,
 * so the entries can be embedded verbatim in a ?debug=timings
 * response. Scopes are RAII: span() returns a Scope whose
 * destruction (or explicit end()) closes the span; nesting depth is
 * the number of open scopes at creation.
 *
 * ChromeTracer appends complete ("ph":"X") events to an in-memory
 * buffer and writes a chrome://tracing / Perfetto-loadable JSON
 * document on flush() only; destroying a tracer does not write.
 * ChromeTracer::fromEnv() is the process profiling hook: when
 * UOPS_TRACE=<file> is set it returns a singleton writing to that
 * file (flushed at process exit), otherwise nullptr, so callers
 * guard with one pointer test and tracing is free when disabled.
 * A SpanSet forwards every closed span to the tracer it was built
 * with, which defaults to fromEnv().
 */

#ifndef UOPS_SUPPORT_OBS_TRACE_H
#define UOPS_SUPPORT_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace uops::obs {

/** 16 lowercase hex chars, unique within the process. */
std::string newTraceId();

/** Monotonic microseconds since the process trace epoch (shared by
 *  every SpanSet and ChromeTracer event, so timelines line up). */
uint64_t traceNowUs();

class ChromeTracer
{
  public:
    explicit ChromeTracer(std::string path);

    ChromeTracer(const ChromeTracer &) = delete;
    ChromeTracer &operator=(const ChromeTracer &) = delete;

    /** A complete event: @p ts_us/@p dur_us on the trace epoch; the
     *  emitting thread becomes the trace tid. */
    void complete(std::string_view name, std::string_view category,
                  uint64_t ts_us, uint64_t dur_us);

    /** Write the buffered document to the path (atomic buffer swap;
     *  later events start a fresh document on the next flush). */
    void flush();

    /** The UOPS_TRACE singleton, or nullptr when unset. */
    static ChromeTracer *fromEnv();

  private:
    mutable std::mutex mutex_;
    std::string path_;
    std::vector<std::string> events_;
};

class SpanSet
{
  public:
    struct Entry
    {
        std::string name;
        uint32_t depth = 0;     ///< open scopes above this one
        uint64_t start_us = 0;  ///< relative to SpanSet creation
        uint64_t dur_us = 0;
    };

    /** RAII span handle; default-constructed is inert (so callers
     *  can write `auto s = maybe_spans ? ... : Scope();`). */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Scope &&other) noexcept;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { end(); }

        /** Close now (idempotent). */
        void end();

      private:
        friend class SpanSet;
        Scope(SpanSet *set, size_t index) : set_(set), index_(index) {}
        SpanSet *set_ = nullptr;
        size_t index_ = 0;
    };

    /** @param category Chrome trace category for forwarded spans.
     *  @param tracer   Profile sink; defaults to the UOPS_TRACE
     *                  singleton, pass nullptr to disable. */
    explicit SpanSet(std::string category = "request",
                     ChromeTracer *tracer = ChromeTracer::fromEnv());

    SpanSet(const SpanSet &) = delete;
    SpanSet &operator=(const SpanSet &) = delete;

    Scope span(std::string_view name);

    /** Recorded spans, in open order. Entries not yet closed still
     *  carry dur_us == 0. */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    friend class Scope;
    void close(size_t index);

    std::string category_;
    ChromeTracer *tracer_;
    uint64_t base_us_;              ///< trace-epoch time of creation
    std::vector<Entry> entries_;
    std::vector<size_t> open_;      ///< stack of entry indices
};

} // namespace uops::obs

#endif // UOPS_SUPPORT_OBS_TRACE_H
