/**
 * @file
 * Structured JSON-lines logger: one self-contained JSON object per
 * line, with levels, component tags and rate limiting.
 *
 * Usage:
 *
 *   logger.event(LogLevel::Info, "http", "access")
 *       .str("id", request_id)
 *       .num("status", 200)
 *       .num("us", elapsed_us);
 *
 * The LogEvent builder accumulates typed fields and emits the
 * finished line when it goes out of scope; an event below the
 * logger's minimum level costs one relaxed load and builds nothing.
 * Every line carries `ts_us` (wall-clock microseconds since the
 * epoch), `level`, `component` and `event` before the caller's
 * fields, so any line can be parsed, filtered and joined on its own.
 *
 * A line is written straight into a byte buffer taken from the
 * calling thread's one spare: line after line, a thread reuses the
 * same buffer and logging allocates nothing. The buffer goes back to
 * the thread's spare slot when the event dies, if that slot is empty
 * and the buffer is at most kKeptLineBytes, so one huge line does
 * not pin memory on every thread. An event begun while another is
 * open on the same thread finds no spare and takes a fresh buffer;
 * it is emitted as its own line, when it dies.
 *
 * Emission is serialized by a mutex — lines are atomic, never
 * interleaved — and rate-limited per wall-second: past
 * max_lines_per_second the line is dropped and a single
 * `log_rate_limited` summary (with the suppressed count) is emitted
 * when the window rolls, so a log storm degrades to one line per
 * second instead of unbounded I/O on the request path.
 *
 * The sink is pluggable (tests collect lines in memory, the CLI
 * writes stderr); it sees each line as a view into the event's
 * buffer, valid only for the duration of the call. The default sink
 * writes the line plus '\n' to file descriptor 2 in one writev, with
 * no copy.
 *
 * defaultLogger() is the process-wide instance for components that
 * are not owned by a server (catalog recovery, CLI commands); its
 * minimum level comes from UOPS_LOG_LEVEL
 * (debug|info|warn|error, default warn so library callers stay quiet
 * unless something is actually wrong).
 */

#ifndef UOPS_SUPPORT_OBS_LOG_H
#define UOPS_SUPPORT_OBS_LOG_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace uops::obs {

enum class LogLevel : uint8_t { Debug = 0, Info, Warn, Error };

const char *logLevelName(LogLevel level);

/** "debug"/"info"/"warn"/"error" (case-insensitive); else empty. */
std::optional<LogLevel> parseLogLevel(std::string_view text);

/** Append @p s JSON-escaped (no surrounding quotes) to @p out. */
void appendJsonEscaped(std::string &out, std::string_view s);

class Logger;

/**
 * Field builder, neither copyable nor movable; emits on destruction.
 * An event built from a disabled level holds no buffer and ignores
 * every call. Fields are formatted into the line as they are added.
 */
class LogEvent
{
  public:
    /** Largest buffer a thread keeps for its next line. */
    static constexpr size_t kKeptLineBytes = 4096;

    LogEvent(const LogEvent &) = delete;
    LogEvent &operator=(const LogEvent &) = delete;
    ~LogEvent();

    LogEvent &str(std::string_view key, std::string_view value);
    LogEvent &num(std::string_view key, uint64_t value);
    LogEvent &num(std::string_view key, int64_t value);
    LogEvent &boolean(std::string_view key, bool value);

  private:
    friend class Logger;
    LogEvent() = default;   ///< disabled: no buffer, writes nothing
    /** Take a buffer and write the line's common head. A null
     *  @p logger builds a line the logger delivers itself. */
    LogEvent(Logger *logger, LogLevel level, std::string_view component,
             std::string_view event_name);

    /** Close the object; the view lives as long as the buffer. */
    std::string_view finish();

    /** At least @p bytes free past the cursor. */
    void
    reserve(size_t bytes)
    {
        if (static_cast<size_t>(end_ - cur_) < bytes)
            grow(bytes);
    }
    void grow(size_t bytes);
    void raw(std::string_view bytes);
    /** Write @p s escaped; @p tail more bytes of the current
     *  reservation follow it. */
    void escaped(std::string_view s, size_t tail);
    /** Write `,"key":` and reserve @p value_bytes after it. */
    void field(std::string_view key, size_t value_bytes);

    Logger *logger_ = nullptr;
    char *begin_ = nullptr;   ///< null: disabled
    char *cur_ = nullptr;
    char *end_ = nullptr;
};

class Logger
{
  public:
    /** Receives one finished line (no trailing newline), once per
     *  line. The view is valid only for the duration of the call.
     *  Must not call back into the logger. */
    using Sink = std::function<void(std::string_view line)>;

    struct Options
    {
        LogLevel min_level = LogLevel::Info;

        /** Lines per wall-second before suppression; 0: unlimited. */
        uint64_t max_lines_per_second = 0;
    };

    Logger();
    explicit Logger(Options options);

    /** Replace the sink; null restores the stderr default. */
    void setSink(Sink sink);

    void setMinLevel(LogLevel level);

    bool
    enabled(LogLevel level) const
    {
        return level >= min_level_.load(std::memory_order_relaxed);
    }

    /** Start a structured event. Fields chain on the returned
     *  builder; the line is emitted when the builder dies. */
    LogEvent event(LogLevel level, std::string_view component,
                   std::string_view event_name);

    /** Lines dropped by the rate limiter. */
    uint64_t suppressed() const;

  private:
    friend class LogEvent;
    void emit(std::string_view line);
    void deliver(std::string_view line);

    std::atomic<LogLevel> min_level_;
    uint64_t max_lines_per_second_;

    std::mutex mutex_;
    Sink sink_;
    std::chrono::steady_clock::time_point window_start_{};
    uint64_t window_count_ = 0;
    uint64_t window_suppressed_ = 0;
    std::atomic<uint64_t> suppressed_{0};
};

/** Process-wide logger (stderr, level from UOPS_LOG_LEVEL). */
Logger &defaultLogger();

} // namespace uops::obs

#endif // UOPS_SUPPORT_OBS_LOG_H
