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
 * Emission is serialized by a mutex — lines are atomic, never
 * interleaved — and rate-limited per wall-second: past
 * max_lines_per_second the line is dropped and a single
 * `log_rate_limited` summary (with the suppressed count) is emitted
 * when the window rolls, so a log storm degrades to one line per
 * second instead of unbounded I/O on the request path.
 *
 * The sink is pluggable (tests collect lines in memory, the CLI
 * writes stderr); the default sink writes the line plus '\n' to
 * stderr in one fwrite. defaultLogger() is the process-wide instance
 * for components that are not owned by a server (catalog recovery,
 * CLI commands); its minimum level comes from UOPS_LOG_LEVEL
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
 * Move-only field builder; emits on destruction. An event built from
 * a disabled level carries no logger and ignores every call.
 */
class LogEvent
{
  public:
    LogEvent(LogEvent &&other) noexcept;
    LogEvent &operator=(LogEvent &&) = delete;
    LogEvent(const LogEvent &) = delete;
    LogEvent &operator=(const LogEvent &) = delete;
    ~LogEvent();

    LogEvent &str(std::string_view key, std::string_view value);
    LogEvent &num(std::string_view key, uint64_t value);
    LogEvent &num(std::string_view key, int64_t value);
    LogEvent &num(std::string_view key, double value);
    LogEvent &boolean(std::string_view key, bool value);
    LogEvent &nullField(std::string_view key);

  private:
    friend class Logger;
    LogEvent(Logger *logger, std::string line);

    void beginField(std::string_view key);

    Logger *logger_ = nullptr;
    std::string line_;
};

class Logger
{
  public:
    /** Receives one finished line (no trailing newline). Must not
     *  call back into the logger. */
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

    /** Lines actually handed to the sink (summaries included). */
    uint64_t emitted() const;

    /** Lines dropped by the rate limiter. */
    uint64_t suppressed() const;

  private:
    friend class LogEvent;
    void emit(std::string &&line);

    std::atomic<LogLevel> min_level_;
    uint64_t max_lines_per_second_;

    std::mutex mutex_;
    Sink sink_;
    std::chrono::steady_clock::time_point window_start_{};
    uint64_t window_count_ = 0;
    uint64_t window_suppressed_ = 0;
    std::atomic<uint64_t> emitted_{0};
    std::atomic<uint64_t> suppressed_{0};
};

/** Process-wide logger (stderr, level from UOPS_LOG_LEVEL). */
Logger &defaultLogger();

} // namespace uops::obs

#endif // UOPS_SUPPORT_OBS_LOG_H
