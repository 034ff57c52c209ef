#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>

#include "log.h"

namespace uops::obs {

namespace {

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

uint32_t
currentTid()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0x7fffffff);
}

} // namespace

uint64_t
traceNowUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

std::string
newTraceId()
{
    // A per-process random seed mixed with a counter: IDs are unique
    // within the process and almost surely unique across concurrent
    // processes, without per-call entropy reads.
    static const uint64_t seed = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<uint64_t> next{0};
    uint64_t sequence = next.fetch_add(1, std::memory_order_relaxed);
    // An odd multiplier diffuses the counter across all 64 bits, so
    // consecutive IDs do not share a long hex prefix.
    uint64_t value = seed ^ (sequence * 0x9e3779b97f4a7c15ULL);
    static const char hex[] = "0123456789abcdef";
    std::string id(16, '0');
    for (size_t i = 0; i < 16; ++i)
        id[15 - i] = hex[(value >> (4 * i)) & 0xf];
    return id;
}

ChromeTracer::ChromeTracer(std::string path) : path_(std::move(path))
{
}

void
ChromeTracer::complete(std::string_view name,
                       std::string_view category, uint64_t ts_us,
                       uint64_t dur_us)
{
    std::string event = "{\"name\":\"";
    appendJsonEscaped(event, name);
    event += "\",\"cat\":\"";
    appendJsonEscaped(event, category);
    event += "\",\"ph\":\"X\",\"ts\":" + std::to_string(ts_us) +
             ",\"dur\":" + std::to_string(dur_us) +
             ",\"pid\":1,\"tid\":" + std::to_string(currentTid()) +
             "}";
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
ChromeTracer::flush()
{
    std::vector<std::string> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (events_.empty())
            return;
        events.swap(events_);
    }
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (f == nullptr)
        return;   // profiling is best-effort; never take down the host
    std::string out = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < events.size(); ++i) {
        out += events[i];
        if (i + 1 < events.size())
            out += ',';
        out += '\n';
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

ChromeTracer *
ChromeTracer::fromEnv()
{
    static ChromeTracer *tracer = []() -> ChromeTracer * {
        const char *path = std::getenv("UOPS_TRACE");
        if (path == nullptr || *path == '\0')
            return nullptr;
        // Leaked intentionally: flushed explicitly by long-running
        // callers; short CLI runs flush via std::atexit so the
        // buffer survives until after main() returns.
        auto *t = new ChromeTracer(path);
        std::atexit([] { fromEnv()->flush(); });
        return t;
    }();
    return tracer;
}

SpanSet::Scope::Scope(Scope &&other) noexcept
    : set_(other.set_), index_(other.index_)
{
    other.set_ = nullptr;
}

void
SpanSet::Scope::end()
{
    if (set_ == nullptr)
        return;
    set_->close(index_);
    set_ = nullptr;
}

SpanSet::SpanSet(std::string category, ChromeTracer *tracer)
    : category_(std::move(category)), tracer_(tracer),
      base_us_(traceNowUs())
{
}

SpanSet::Scope
SpanSet::span(std::string_view name)
{
    Entry entry;
    entry.name = std::string(name);
    entry.depth = static_cast<uint32_t>(open_.size());
    entry.start_us = traceNowUs() - base_us_;
    size_t index = entries_.size();
    entries_.push_back(std::move(entry));
    open_.push_back(index);
    return Scope(this, index);
}

void
SpanSet::close(size_t index)
{
    Entry &entry = entries_[index];
    uint64_t now = traceNowUs();
    uint64_t start_abs = base_us_ + entry.start_us;
    entry.dur_us = now > start_abs ? now - start_abs : 0;
    open_.erase(std::remove(open_.begin(), open_.end(), index),
                open_.end());
    if (tracer_ != nullptr)
        tracer_->complete(entry.name, category_, start_abs,
                          entry.dur_us);
}

} // namespace uops::obs
