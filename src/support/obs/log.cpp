#include "log.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <sys/uio.h>
#include <unistd.h>

namespace uops::obs {

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

std::optional<LogLevel>
parseLogLevel(std::string_view text)
{
    std::string lower;
    lower.reserve(text.size());
    for (char c : text)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "debug")
        return LogLevel::Debug;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "error")
        return LogLevel::Error;
    return std::nullopt;
}

namespace {

/** Bytes JSON strings must escape: controls, '"' and '\\'. */
constexpr auto kNeedsEscape = [] {
    std::array<bool, 256> table{};
    for (int c = 0; c < 0x20; ++c)
        table[c] = true;
    table['"'] = true;
    table['\\'] = true;
    return table;
}();

bool
needsEscape(unsigned char c)
{
    return kNeedsEscape[c];
}

/** Write the escape for @p c (needsEscape) at @p out; returns the
 *  end. At most six bytes. */
char *
writeEscape(char *out, unsigned char c)
{
    *out++ = '\\';
    switch (c) {
      case '"': *out++ = '"'; break;
      case '\\': *out++ = '\\'; break;
      case '\n': *out++ = 'n'; break;
      case '\r': *out++ = 'r'; break;
      case '\t': *out++ = 't'; break;
      default: {
        static const char hex[] = "0123456789abcdef";
        *out++ = 'u';
        *out++ = '0';
        *out++ = '0';
        *out++ = hex[c >> 4];
        *out++ = hex[c & 0xf];
      }
    }
    return out;
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    size_t run = 0;   // start of the pending run of safe bytes
    for (size_t i = 0; i < s.size(); ++i) {
        auto c = static_cast<unsigned char>(s[i]);
        if (!needsEscape(c))
            continue;
        out.append(s.data() + run, i - run);
        char buf[6];
        out.append(buf, writeEscape(buf, c));
        run = i + 1;
    }
    out.append(s.data() + run, s.size() - run);
}

namespace {

uint64_t
wallClockUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Digits of the widest int64/uint64 (INT64_MIN's sign included). */
constexpr size_t kIntBytes = 20;

/** A new thread's first buffer: an access line fits. */
constexpr size_t kFirstLineBytes = 256;

/** The thread's spare line buffer (null while an event holds it). */
struct SpareLine
{
    char *data = nullptr;
    size_t capacity = 0;

    ~SpareLine();
};

// Set once the thread's spare is destroyed: an event that dies later
// in thread exit (a logging destructor) allocates and frees its own
// buffer. Trivially destructible, so it can be read at any time.
thread_local bool t_spare_gone = false;
thread_local SpareLine t_spare;

SpareLine::~SpareLine()
{
    delete[] data;
    data = nullptr;
    t_spare_gone = true;
}

} // namespace

LogEvent::LogEvent(Logger *logger, LogLevel level,
                   std::string_view component,
                   std::string_view event_name)
    : logger_(logger)
{
    size_t capacity = kFirstLineBytes;
    if (!t_spare_gone && t_spare.data != nullptr) {
        begin_ = std::exchange(t_spare.data, nullptr);
        capacity = t_spare.capacity;
    } else {
        begin_ = new char[capacity];
    }
    cur_ = begin_;
    end_ = begin_ + capacity;

    reserve(64 + kIntBytes + component.size());
    raw("{\"ts_us\":");
    cur_ = std::to_chars(cur_, end_, wallClockUs()).ptr;
    raw(",\"level\":\"");
    raw(logLevelName(level));
    raw("\",\"component\":\"");
    escaped(component, 1);
    *cur_++ = '"';
    reserve(16 + event_name.size());
    raw(",\"event\":\"");
    escaped(event_name, 1);
    *cur_++ = '"';
}

LogEvent::~LogEvent()
{
    if (begin_ == nullptr)
        return;
    if (logger_ != nullptr)
        logger_->emit(finish());
    auto capacity = static_cast<size_t>(end_ - begin_);
    if (capacity <= kKeptLineBytes && !t_spare_gone &&
        t_spare.data == nullptr) {
        t_spare.data = begin_;
        t_spare.capacity = capacity;
    } else {
        delete[] begin_;
    }
}

std::string_view
LogEvent::finish()
{
    reserve(1);
    *cur_++ = '}';
    return std::string_view(begin_, static_cast<size_t>(cur_ - begin_));
}

void
LogEvent::grow(size_t bytes)
{
    auto used = static_cast<size_t>(cur_ - begin_);
    size_t capacity = std::max(2 * static_cast<size_t>(end_ - begin_),
                               used + bytes);
    char *grown = new char[capacity];
    std::memcpy(grown, begin_, used);
    delete[] begin_;
    begin_ = grown;
    cur_ = grown + used;
    end_ = grown + capacity;
}

void
LogEvent::raw(std::string_view bytes)
{
    std::memcpy(cur_, bytes.data(), bytes.size());
    cur_ += bytes.size();
}

void
LogEvent::escaped(std::string_view s, size_t tail)
{
    // The reservation holds s unescaped; an escape widens one byte to
    // at most six, so it re-reserves for the rest of s and the tail.
    const char *run = s.data();
    const char *end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        auto c = static_cast<unsigned char>(*p);
        if (!needsEscape(c))
            continue;
        raw(std::string_view(run, static_cast<size_t>(p - run)));
        reserve(6 + static_cast<size_t>(end - p - 1) + tail);
        cur_ = writeEscape(cur_, c);
        run = p + 1;
    }
    raw(std::string_view(run, static_cast<size_t>(end - run)));
}

void
LogEvent::field(std::string_view key, size_t value_bytes)
{
    reserve(key.size() + value_bytes + 4);
    raw(",\"");
    escaped(key, value_bytes + 2);
    raw("\":");
}

LogEvent &
LogEvent::str(std::string_view key, std::string_view value)
{
    if (begin_ == nullptr)
        return *this;
    field(key, value.size() + 2);
    *cur_++ = '"';
    escaped(value, 1);
    *cur_++ = '"';
    return *this;
}

LogEvent &
LogEvent::num(std::string_view key, uint64_t value)
{
    if (begin_ == nullptr)
        return *this;
    field(key, kIntBytes);
    cur_ = std::to_chars(cur_, end_, value).ptr;
    return *this;
}

LogEvent &
LogEvent::num(std::string_view key, int64_t value)
{
    if (begin_ == nullptr)
        return *this;
    field(key, kIntBytes);
    cur_ = std::to_chars(cur_, end_, value).ptr;
    return *this;
}

LogEvent &
LogEvent::boolean(std::string_view key, bool value)
{
    if (begin_ == nullptr)
        return *this;
    field(key, 5);
    raw(value ? "true" : "false");
    return *this;
}

Logger::Logger() : Logger(Options{})
{
}

Logger::Logger(Options options)
    : min_level_(options.min_level),
      max_lines_per_second_(options.max_lines_per_second)
{
}

void
Logger::setSink(Sink sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sink_ = std::move(sink);
}

void
Logger::setMinLevel(LogLevel level)
{
    min_level_.store(level, std::memory_order_relaxed);
}

LogEvent
Logger::event(LogLevel level, std::string_view component,
              std::string_view event_name)
{
    if (!enabled(level))
        return LogEvent();
    return LogEvent(this, level, component, event_name);
}

uint64_t
Logger::suppressed() const
{
    return suppressed_.load(std::memory_order_relaxed);
}

namespace {

void
stderrSink(std::string_view line)
{
    // The line and its newline in one writev on fd 2, with no copy:
    // lines from concurrent writers can interleave only at line
    // granularity. A short write continues where it stopped.
    char newline = '\n';
    iovec iov[2] = {{const_cast<char *>(line.data()), line.size()},
                    {&newline, 1}};
    iovec *next = iov;
    int left = 2;
    while (left > 0) {
        ssize_t written = ::writev(STDERR_FILENO, next, left);
        if (written < 0 && errno == EINTR)
            continue;
        if (written <= 0)
            return; // nowhere to report a failed log write
        auto done = static_cast<size_t>(written);
        for (; left > 0 && done >= next->iov_len; ++next, --left)
            done -= next->iov_len;
        if (left > 0) {
            next->iov_base = static_cast<char *>(next->iov_base) + done;
            next->iov_len -= done;
        }
    }
}

} // namespace

void
Logger::emit(std::string_view line)
{
    std::lock_guard<std::mutex> lock(mutex_);

    if (max_lines_per_second_ > 0) {
        auto now = std::chrono::steady_clock::now();
        if (now - window_start_ >= std::chrono::seconds(1)) {
            if (window_suppressed_ > 0) {
                LogEvent summary(nullptr, LogLevel::Warn, "obs",
                                 "log_rate_limited");
                summary.num("suppressed", window_suppressed_);
                deliver(summary.finish());
            }
            window_start_ = now;
            window_count_ = 0;
            window_suppressed_ = 0;
        }
        if (window_count_ >= max_lines_per_second_) {
            ++window_suppressed_;
            suppressed_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        ++window_count_;
    }
    deliver(line);
}

void
Logger::deliver(std::string_view line)
{
    if (sink_)
        sink_(line);
    else
        stderrSink(line);
}

Logger &
defaultLogger()
{
    static Logger *logger = [] {
        Logger::Options options;
        // Quiet by default: library code (catalog loads, CLI runs,
        // tests) logs here, and routine Info lines on stderr would be
        // noise. Warnings and errors always show; operators opt into
        // more with UOPS_LOG_LEVEL=info|debug.
        options.min_level = LogLevel::Warn;
        if (const char *env = std::getenv("UOPS_LOG_LEVEL")) {
            if (auto level = parseLogLevel(env))
                options.min_level = *level;
        }
        return new Logger(options);   // leaked: outlives exit hooks
    }();
    return *logger;
}

} // namespace uops::obs
