/**
 * @file
 * Unit tests for the observability layer (support/obs): metrics
 * instruments and registry exposition, the JSON-lines structured
 * logger and its default stderr sink, and the tracing primitives
 * (trace IDs, span sets, Chrome trace sink).
 */

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "obs_util.h"
#include "support/obs/log.h"
#include "support/obs/metrics.h"
#include "support/obs/trace.h"
#include "support/thread_pool.h"

namespace uops::test {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeBasics)
{
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);

    obs::Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(7.5);
    EXPECT_EQ(gauge.value(), 7.5);
    gauge.add(-2.5);
    EXPECT_EQ(gauge.value(), 5.0);
}

TEST(ObsMetrics, HistogramBucketMath)
{
    // Bucket 0 is exactly zero; bucket i covers (2^(i-1), 2^i - 1].
    EXPECT_EQ(obs::Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(3), 7u);

    // Values past the last finite bound land in the open last bucket.
    obs::Histogram histogram;
    histogram.observe(~0ull);
    auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.buckets[obs::Histogram::kBuckets - 1], 1u);
}

TEST(ObsMetrics, HistogramSnapshotCountsAndSums)
{
    obs::Histogram histogram;
    auto empty = histogram.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.sum, 0u);

    for (uint64_t v : {1ull, 2ull, 3ull, 100ull})
        histogram.observe(v);
    auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 4u);
    EXPECT_EQ(snapshot.sum, 106u);
    // 2 and 3 share the bucket bounded by 3; 100 lands in the one
    // bounded by 127.
    EXPECT_EQ(snapshot.buckets[1], 1u);
    EXPECT_EQ(snapshot.buckets[2], 2u);
    EXPECT_EQ(snapshot.buckets[7], 1u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(7), 127u);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(ObsRegistry, RegisterOrFetchIsIdempotent)
{
    obs::Registry registry;
    obs::Counter &a =
        registry.counter("uops_test_total", "help", {{"k", "v"}});
    obs::Counter &b =
        registry.counter("uops_test_total", "ignored", {{"k", "v"}});
    EXPECT_EQ(&a, &b);

    // Label order must not matter: one series, not two.
    obs::Counter &c = registry.counter(
        "uops_pair_total", "help", {{"a", "1"}, {"b", "2"}});
    obs::Counter &d = registry.counter(
        "uops_pair_total", "help", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&c, &d);
}

TEST(ObsRegistry, ExpositionRoundTrip)
{
    obs::Registry registry;
    registry.counter("uops_requests_total", "Requests",
                     {{"endpoint", "/predict"}})
        .inc(3);
    registry.counter("uops_requests_total", "Requests",
                     {{"endpoint", "/stats"}})
        .inc(1);
    registry.gauge("uops_generation", "Serving generation").set(17);
    obs::Histogram &histogram =
        registry.histogram("uops_latency_us", "Latency");
    histogram.observe(0);
    histogram.observe(5);
    histogram.observe(1000);
    registry.gaugeCallback("uops_inflight", "Inflight", {},
                           [] { return 2.0; });
    registry.counterCallback("uops_evictions_total", "Evictions",
                             {{"cache", "response"}},
                             [] { return 9.0; });

    Exposition parsed = parseExposition(registry.renderPrometheus());

    EXPECT_EQ(parsed
                  .series["uops_requests_total"
                          "{endpoint=\"/predict\"}"],
              3.0);
    EXPECT_EQ(
        parsed.series["uops_requests_total{endpoint=\"/stats\"}"],
        1.0);
    EXPECT_EQ(parsed.series["uops_generation"], 17.0);
    EXPECT_EQ(parsed.series["uops_inflight"], 2.0);
    EXPECT_EQ(
        parsed.series["uops_evictions_total{cache=\"response\"}"],
        9.0);

    // Histogram: cumulative buckets, +Inf closes at count, sum/count
    // series present, TYPE declared.
    EXPECT_EQ(parsed.series["uops_latency_us_count"], 3.0);
    EXPECT_EQ(parsed.series["uops_latency_us_sum"], 1005.0);
    EXPECT_EQ(parsed.series["uops_latency_us_bucket{le=\"0\"}"], 1.0);
    EXPECT_EQ(parsed.series["uops_latency_us_bucket{le=\"7\"}"], 2.0);
    EXPECT_EQ(parsed.series["uops_latency_us_bucket{le=\"+Inf\"}"],
              3.0);
    EXPECT_EQ(parsed.type["uops_latency_us"], "histogram");
    EXPECT_EQ(parsed.type["uops_requests_total"], "counter");
    EXPECT_EQ(parsed.type["uops_generation"], "gauge");
    EXPECT_EQ(parsed.help["uops_requests_total"], "Requests");

    // Cumulativity across every bucket in numeric le order (the map
    // iterates keys lexicographically, which scrambles the bounds).
    double prev = 0;
    for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        std::string le =
            i + 1 == obs::Histogram::kBuckets
                ? "+Inf"
                : std::to_string(obs::Histogram::bucketUpperBound(i));
        std::string key =
            "uops_latency_us_bucket{le=\"" + le + "\"}";
        ASSERT_TRUE(parsed.series.count(key)) << key;
        double value = parsed.series[key];
        EXPECT_GE(value, prev) << key;
        prev = value;
    }
    EXPECT_EQ(prev, 3.0);   // +Inf bucket equals _count
}

TEST(ObsRegistry, EscapesLabelValues)
{
    obs::Registry registry;
    registry.counter("uops_weird_total", "Weird",
                     {{"path", "a\\b\"c\nd"}})
        .inc();
    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""),
              std::string::npos)
        << text;
    // The raw control byte must not survive into the exposition.
    EXPECT_EQ(text.find("c\nd"), std::string::npos);
}

TEST(ObsRegistry, ConcurrentRegistrationAndRecording)
{
    obs::Registry registry;
    ThreadPool pool(8);
    pool.parallelFor(64, [&](size_t i, size_t) {
        obs::LabelSet labels{
            {"worker", std::to_string(i % 4)}};
        registry
            .counter("uops_conc_total", "Concurrent", labels)
            .inc();
        registry.histogram("uops_conc_us", "Concurrent").observe(i);
    });
    Exposition parsed = parseExposition(registry.renderPrometheus());
    double total = 0;
    for (int w = 0; w < 4; ++w)
        total += parsed.series["uops_conc_total{worker=\"" +
                               std::to_string(w) + "\"}"];
    EXPECT_EQ(total, 64.0);
    EXPECT_EQ(parsed.series["uops_conc_us_count"], 64.0);
}

// ---------------------------------------------------------------------
// Structured logger.
// ---------------------------------------------------------------------

TEST(ObsLog, EmitsValidJsonWithAllFieldTypes)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Debug;
    obs::Logger logger(options);
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        lines.emplace_back(line);
    });

    logger.event(obs::LogLevel::Info, "test", "kitchen_sink")
        .str("quoted", "a\"b\\c\nd\te\x01f")
        .num("u", static_cast<uint64_t>(42))
        .num("i", static_cast<int64_t>(-7))
        .boolean("yes", true);

    ASSERT_EQ(lines.size(), 1u);
    const std::string &line = lines[0];
    EXPECT_TRUE(isValidJsonObject(line)) << line;
    EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
    EXPECT_NE(line.find("\"component\":\"test\""), std::string::npos);
    EXPECT_NE(line.find("\"event\":\"kitchen_sink\""),
              std::string::npos);
    EXPECT_NE(line.find("\"i\":-7"), std::string::npos);
}

TEST(ObsLog, LevelFilteringIsComplete)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Warn;
    obs::Logger logger(options);
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        lines.emplace_back(line);
    });

    EXPECT_FALSE(logger.enabled(obs::LogLevel::Info));
    EXPECT_TRUE(logger.enabled(obs::LogLevel::Error));
    logger.event(obs::LogLevel::Info, "test", "dropped")
        .str("k", "v");
    logger.event(obs::LogLevel::Error, "test", "kept");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"kept\""), std::string::npos);

    logger.setMinLevel(obs::LogLevel::Debug);
    logger.event(obs::LogLevel::Debug, "test", "now_visible");
    EXPECT_EQ(lines.size(), 2u);
}

TEST(ObsLog, RateLimiterSuppresses)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Debug;
    options.max_lines_per_second = 5;
    obs::Logger logger(options);
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        lines.emplace_back(line);
    });
    for (int i = 0; i < 50; ++i)
        logger.event(obs::LogLevel::Info, "test", "burst")
            .num("i", static_cast<int64_t>(i));
    // The burst almost always lands in one 1s window (5 emitted, 45
    // suppressed); a scheduler hiccup may straddle two windows, which
    // adds at most one more window's worth plus a summary line.
    EXPECT_LE(lines.size(), 11u);
    EXPECT_GE(logger.suppressed(), 39u);
    for (const std::string &line : lines)
        EXPECT_TRUE(isValidJsonObject(line)) << line;
}

TEST(ObsLog, ConcurrentLinesStayWellFormed)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Debug;
    obs::Logger logger(options);
    std::mutex sink_mutex;
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        lines.emplace_back(line);
    });

    ThreadPool pool(8);
    pool.parallelFor(256, [&](size_t i, size_t worker) {
        logger
            .event(obs::LogLevel::Info, "hammer", "line")
            .num("i", static_cast<uint64_t>(i))
            .num("worker", static_cast<uint64_t>(worker))
            .str("payload", "x\"y\\z");
    });

    ASSERT_EQ(lines.size(), 256u);
    std::set<std::string> distinct;
    for (const std::string &line : lines) {
        EXPECT_TRUE(isValidJsonObject(line)) << line;
        distinct.insert(line);
    }
    // Every line is one whole event: no interleaving, no loss.
    EXPECT_EQ(distinct.size(), 256u);
}

/** @p line after its `{"ts_us":<digits>` head: every byte the logger
 *  writes apart from the clock. */
std::string
afterTimestamp(const std::string &line)
{
    const std::string head = "{\"ts_us\":";
    EXPECT_EQ(line.compare(0, head.size(), head), 0) << line;
    size_t end = head.size();
    while (end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[end])))
        ++end;
    EXPECT_GT(end, head.size()) << line;
    return line.substr(end);
}

TEST(ObsLog, LinesAreByteExact)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Debug;
    obs::Logger logger(options);
    std::mutex sink_mutex;
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        lines.emplace_back(line);
    });
    std::vector<std::string> expected;

    // Every field type, every escape; 0x7f and UTF-8 stay raw.
    logger.event(obs::LogLevel::Info, "go\"lden", "fields\n")
        .str("s", "plain")
        .str("esc", std::string_view("q\"b\\n\nr\rt\tc\x01u\x1f"
                                     "z\0d\x7f\xc3\xa9",
                                     20))
        .str("", "")
        .str("k\\\"\x1f", "v")
        .num("u0", static_cast<uint64_t>(0))
        .num("umax", UINT64_MAX)
        .num("imin", INT64_MIN)
        .num("imax", INT64_MAX)
        .num("ineg", static_cast<int64_t>(-7))
        .boolean("t", true)
        .boolean("f", false);
    expected.push_back(
        ",\"level\":\"info\",\"component\":\"go\\\"lden\","
        "\"event\":\"fields\\n\",\"s\":\"plain\","
        "\"esc\":\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001u\\u001fz\\u0000d"
        "\x7f\xc3\xa9\",\"\":\"\",\"k\\\\\\\"\\u001f\":\"v\","
        "\"u0\":0,\"umax\":18446744073709551615,"
        "\"imin\":-9223372036854775808,\"imax\":9223372036854775807,"
        "\"ineg\":-7,\"t\":true,\"f\":false}");

    // Every level's name; an event without fields.
    logger.event(obs::LogLevel::Debug, "", "");
    expected.push_back(
        ",\"level\":\"debug\",\"component\":\"\",\"event\":\"\"}");
    logger.event(obs::LogLevel::Warn, "c", "e").boolean("b", false);
    expected.push_back(",\"level\":\"warn\",\"component\":\"c\","
                       "\"event\":\"e\",\"b\":false}");
    logger.event(obs::LogLevel::Error, "c", "e")
        .num("i", static_cast<int64_t>(0));
    expected.push_back(",\"level\":\"error\",\"component\":\"c\","
                       "\"event\":\"e\",\"i\":0}");

    // Lines far longer than any buffer a thread keeps: plain bytes,
    // then bytes that all escape to six; then a short line after them.
    const std::string plain(5000, 'x');
    const std::string controls(3000, '\x02');
    logger.event(obs::LogLevel::Info, "long", "line")
        .str("plain", plain)
        .str("controls", controls)
        .num("after", static_cast<uint64_t>(1));
    std::string escaped_controls;
    for (size_t i = 0; i < controls.size(); ++i)
        escaped_controls += "\\u0002";
    expected.push_back(",\"level\":\"info\",\"component\":\"long\","
                       "\"event\":\"line\",\"plain\":\"" +
                       plain + "\",\"controls\":\"" + escaped_controls +
                       "\",\"after\":1}");
    logger.event(obs::LogLevel::Info, "short", "line").str("k", "v");
    expected.push_back(",\"level\":\"info\",\"component\":\"short\","
                       "\"event\":\"line\",\"k\":\"v\"}");

    // An event built while another is open on the same thread is its
    // own line, emitted first; the outer one keeps its fields.
    {
        obs::LogEvent outer =
            logger.event(obs::LogLevel::Info, "nest", "outer");
        outer.str("a", "1");
        logger.event(obs::LogLevel::Info, "nest", "inner")
            .str("b", plain.substr(0, 300));
        outer.num("c", static_cast<int64_t>(3));
    }
    expected.push_back(",\"level\":\"info\",\"component\":\"nest\","
                       "\"event\":\"inner\",\"b\":\"" +
                       plain.substr(0, 300) + "\"}");
    expected.push_back(",\"level\":\"info\",\"component\":\"nest\","
                       "\"event\":\"outer\",\"a\":\"1\",\"c\":3}");

    // A disabled event writes nothing.
    logger.setMinLevel(obs::LogLevel::Warn);
    logger.event(obs::LogLevel::Info, "quiet", "dropped").str("k", "v");

    ASSERT_EQ(lines.size(), expected.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(afterTimestamp(lines[i]), expected[i]) << "line " << i;
}

TEST(ObsLog, RateLimitSummaryLineIsByteExact)
{
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Debug;
    options.max_lines_per_second = 2;
    obs::Logger logger(options);
    std::vector<std::string> lines;
    logger.setSink([&](std::string_view line) {
        lines.emplace_back(line);
    });
    for (int i = 0; i < 5; ++i)
        logger.event(obs::LogLevel::Info, "burst", "line")
            .num("i", static_cast<int64_t>(i));
    ASSERT_EQ(logger.suppressed(), 3u);
    // The next window opens with the summary of the last one.
    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
    logger.event(obs::LogLevel::Info, "burst", "later");

    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(afterTimestamp(lines[0]),
              ",\"level\":\"info\",\"component\":\"burst\","
              "\"event\":\"line\",\"i\":0}");
    EXPECT_EQ(afterTimestamp(lines[1]),
              ",\"level\":\"info\",\"component\":\"burst\","
              "\"event\":\"line\",\"i\":1}");
    EXPECT_EQ(afterTimestamp(lines[2]),
              ",\"level\":\"warn\",\"component\":\"obs\","
              "\"event\":\"log_rate_limited\",\"suppressed\":3}");
    EXPECT_EQ(afterTimestamp(lines[3]),
              ",\"level\":\"info\",\"component\":\"burst\","
              "\"event\":\"later\"}");
}

TEST(ObsLog, StderrSinkWritesWholeLinesWithoutAllocating)
{
    // With no sink set, a line and its newline go to file descriptor
    // 2, here redirected into a temporary file, and a thread that logs
    // line after line allocates nothing for them.
    obs::Logger::Options options;
    options.min_level = obs::LogLevel::Info;
    obs::Logger logger(options);
    std::string path =
        (fs::temp_directory_path() / "obs_test_stderr_XXXXXX").string();
    const int file = mkstemp(path.data());
    ASSERT_GE(file, 0);
    std::fflush(stderr);
    const int saved = dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    ASSERT_EQ(dup2(file, STDERR_FILENO), STDERR_FILENO);

    constexpr int kLines = 64;
    auto emit = [&](int i) {
        logger.event(obs::LogLevel::Info, "sink", "line")
            .num("i", static_cast<int64_t>(i))
            .str("pad", std::string_view("q\"\n0123456789", 3 + i % 11));
    };
    emit(0); // takes the thread's spare line buffer
    g_allocations = 0;
    g_count_allocations = true;
    for (int i = 1; i <= kLines; ++i)
        emit(i);
    g_count_allocations = false;
    const size_t allocations = g_allocations.load();

    // Restore fd 2 before anything can fail.
    const bool restored = dup2(saved, STDERR_FILENO) == STDERR_FILENO;
    close(saved);
    close(file);
    ASSERT_TRUE(restored);
    std::ifstream in(path, std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    fs::remove(path);

    EXPECT_EQ(allocations, 0u) << "over " << kLines << " lines";
    std::vector<std::string> lines;
    for (size_t at = 0, end; at < written.size(); at = end + 1) {
        end = written.find('\n', at);
        ASSERT_NE(end, std::string::npos) << "unterminated last line";
        lines.push_back(written.substr(at, end - at));
    }
    ASSERT_EQ(lines.size(), kLines + 1u);
    for (int i = 0; i <= kLines; ++i) {
        const std::string pad =
            std::string("q\\\"\\n0123456789").substr(0, 5 + i % 11);
        EXPECT_EQ(afterTimestamp(lines[static_cast<size_t>(i)]),
                  ",\"level\":\"info\",\"component\":\"sink\","
                  "\"event\":\"line\",\"i\":" +
                      std::to_string(i) + ",\"pad\":\"" + pad + "\"}")
            << "line " << i;
    }
}

// ---------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------

TEST(ObsTrace, TraceIdsAreWellFormedAndDistinct)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i) {
        std::string id = obs::newTraceId();
        ASSERT_EQ(id.size(), 16u);
        for (char c : id)
            ASSERT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                        !std::isupper(static_cast<unsigned char>(c)))
                << id;
        seen.insert(id);
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(ObsTrace, SpanNestingDepthsAndOrder)
{
    obs::SpanSet spans("test", nullptr);
    {
        auto root = spans.span("root");
        {
            auto child = spans.span("child");
            auto grandchild = spans.span("grandchild");
        }
        auto sibling = spans.span("sibling");
    }
    const auto &entries = spans.entries();
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].name, "root");
    EXPECT_EQ(entries[0].depth, 0u);
    EXPECT_EQ(entries[1].name, "child");
    EXPECT_EQ(entries[1].depth, 1u);
    EXPECT_EQ(entries[2].name, "grandchild");
    EXPECT_EQ(entries[2].depth, 2u);
    EXPECT_EQ(entries[3].name, "sibling");
    EXPECT_EQ(entries[3].depth, 1u);
    // Children start no earlier than their parent and end within it.
    EXPECT_GE(entries[1].start_us, entries[0].start_us);
    EXPECT_LE(entries[1].start_us + entries[1].dur_us,
              entries[0].start_us + entries[0].dur_us);
}

TEST(ObsTrace, ScopeEndIsIdempotentAndMovable)
{
    obs::SpanSet spans("test", nullptr);
    obs::SpanSet::Scope inert;   // default: no set, all no-ops
    inert.end();

    auto outer = spans.span("moved");
    obs::SpanSet::Scope stolen = std::move(outer);
    outer.end();   // moved-from: must not close the span
    EXPECT_EQ(spans.entries()[0].dur_us, 0u);
    stolen.end();
    stolen.end();  // second end: no double close
    ASSERT_EQ(spans.entries().size(), 1u);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ObsTrace, ChromeTracerWritesLoadableJson)
{
    auto path = fs::temp_directory_path() /
                ("obs_trace_" +
                 std::to_string(::getpid()) + ".json");
    fs::remove(path);
    obs::ChromeTracer tracer(path.string());
    tracer.complete("alpha", "test", 10, 5);
    tracer.complete("beta", "test", 15, 1);
    tracer.flush();
    std::string doc = readFile(path);
    // One-document JSON: the validator accepts it whole.
    std::string flat;
    for (char c : doc)
        if (c != '\n')
            flat += c;
    EXPECT_TRUE(isValidJsonObject(flat)) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"alpha\""), std::string::npos);
    EXPECT_NE(doc.find("\"beta\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);

    // A flush empties the buffer: later events start a fresh
    // document.
    tracer.complete("gamma", "test", 20, 2);
    tracer.flush();
    doc = readFile(path);
    EXPECT_NE(doc.find("\"gamma\""), std::string::npos) << doc;
    EXPECT_EQ(doc.find("\"alpha\""), std::string::npos) << doc;
    fs::remove(path);
}

TEST(ObsTrace, SpanSetForwardsClosedSpansToTracer)
{
    auto path = fs::temp_directory_path() /
                ("obs_spans_" +
                 std::to_string(::getpid()) + ".json");
    fs::remove(path);
    obs::ChromeTracer tracer(path.string());
    {
        obs::SpanSet spans("unit", &tracer);
        auto scope = spans.span("forwarded");
    }
    tracer.flush();
    std::string doc = readFile(path);
    EXPECT_NE(doc.find("{\"name\":\"forwarded\",\"cat\":\"unit\","
                       "\"ph\":\"X\""),
              std::string::npos)
        << doc;
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 3) << doc;
    fs::remove(path);
}

} // namespace
} // namespace uops::test
