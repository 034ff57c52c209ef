#include "log.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
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

std::string
linePrefix(LogLevel level, std::string_view component,
           std::string_view event_name)
{
    std::string line = "{\"ts_us\":" + std::to_string(wallClockUs());
    line += ",\"level\":\"";
    line += logLevelName(level);
    line += "\",\"component\":\"";
    appendJsonEscaped(line, component);
    line += "\",\"event\":\"";
    appendJsonEscaped(line, event_name);
    line += '"';
    return line;
}

} // namespace

LogEvent::LogEvent(Logger *logger, std::string line)
    : logger_(logger), line_(std::move(line))
{
}

LogEvent::LogEvent(LogEvent &&other) noexcept
    : logger_(other.logger_), line_(std::move(other.line_))
{
    other.logger_ = nullptr;
}

LogEvent::~LogEvent()
{
    if (logger_ == nullptr)
        return;
    line_ += '}';
    logger_->emit(std::move(line_));
}

void
LogEvent::beginField(std::string_view key)
{
    line_ += ",\"";
    appendJsonEscaped(line_, key);
    line_ += "\":";
}

LogEvent &
LogEvent::str(std::string_view key, std::string_view value)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    line_ += '"';
    appendJsonEscaped(line_, value);
    line_ += '"';
    return *this;
}

LogEvent &
LogEvent::num(std::string_view key, uint64_t value)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    line_ += std::to_string(value);
    return *this;
}

LogEvent &
LogEvent::num(std::string_view key, int64_t value)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    line_ += std::to_string(value);
    return *this;
}

LogEvent &
LogEvent::num(std::string_view key, double value)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    if (std::isfinite(value)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        line_ += buf;
    } else {
        line_ += "null";   // JSON has no Inf/NaN
    }
    return *this;
}

LogEvent &
LogEvent::boolean(std::string_view key, bool value)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    line_ += value ? "true" : "false";
    return *this;
}

LogEvent &
LogEvent::nullField(std::string_view key)
{
    if (logger_ == nullptr)
        return *this;
    beginField(key);
    line_ += "null";
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
        return LogEvent(nullptr, std::string());
    return LogEvent(this, linePrefix(level, component, event_name));
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
    // One fwrite per line: lines from concurrent loggers sharing the
    // stream can interleave only at line granularity.
    std::string out(line);
    out += '\n';
    std::fwrite(out.data(), 1, out.size(), stderr);
}

} // namespace

void
Logger::emit(std::string &&line)
{
    std::lock_guard<std::mutex> lock(mutex_);

    if (max_lines_per_second_ > 0) {
        auto now = std::chrono::steady_clock::now();
        if (now - window_start_ >= std::chrono::seconds(1)) {
            if (window_suppressed_ > 0) {
                std::string summary = linePrefix(
                    LogLevel::Warn, "obs", "log_rate_limited");
                summary += ",\"suppressed\":" +
                           std::to_string(window_suppressed_) + "}";
                if (sink_)
                    sink_(summary);
                else
                    stderrSink(summary);
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
