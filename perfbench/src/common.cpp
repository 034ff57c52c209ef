#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "isa/parser.h"
#include "support/obs/log.h"

namespace perfbench {

namespace {

/** Origin of span timestamps. */
const Clock::time_point kProcessStart = Clock::now();

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    uops::obs::appendJsonEscaped(out, s);
    out += '"';
    return out;
}

double isa_tables_seconds = 0;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Result ---------------------------------------------------------

void
Result::set(const std::string &name, double value,
            const std::string &unit)
{
    for (auto &[existing, metric] : metrics) {
        if (existing == name) {
            metric = Metric{value, unit};
            return;
        }
    }
    metrics.emplace_back(name, Metric{value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok)
        fail(what);
}

void
Result::fail(const std::string &what)
{
    ++failed;
    correct = false;
    if (reported_failures_++ < 20)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void
Result::absorb(const Result &other)
{
    attempted += other.attempted;
    failed += other.failed;
    correct = correct && other.correct;
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               formatNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    out += "}}";
    return out;
}

// ---- shared tables --------------------------------------------------

const uops::isa::InstrDb &
instrDb()
{
    // Built kTableBuilds times, one at a time; the last one is kept
    // and the median build time is the set-up figure.
    static const std::unique_ptr<uops::isa::InstrDb> instance = [] {
        constexpr int kTableBuilds = 5;
        std::unique_ptr<uops::isa::InstrDb> db;
        std::vector<double> seconds;
        for (int i = 0; i < kTableBuilds; ++i) {
            db.reset();
            Clock::time_point t0 = Clock::now();
            db = uops::isa::buildDefaultDb();
            seconds.push_back(secondsSince(t0));
        }
        isa_tables_seconds = median(seconds);
        return db;
    }();
    return *instance;
}

double
isaTablesSeconds()
{
    instrDb();
    return isa_tables_seconds;
}

const uops::uarch::TimingDb &
timingDb(uops::uarch::UArch arch)
{
    static std::mutex mutex;
    static std::map<uops::uarch::UArch,
                    std::unique_ptr<uops::uarch::TimingDb>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = cache[arch];
    if (!slot)
        slot = std::make_unique<uops::uarch::TimingDb>(instrDb(), arch);
    return *slot;
}

// ---- statistics -----------------------------------------------------

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Buckets cover [kHistogramMin, kHistogramMin * kGrowth^kHistogramBuckets):
// 1 ns to ~3 min when values are in microseconds.
constexpr double kHistogramMin = 1e-3;
constexpr double kGrowth = 1.01;
constexpr size_t kHistogramBuckets = 2600;

} // namespace

LogHistogram::LogHistogram() : buckets_(kHistogramBuckets, 0) {}

void
LogHistogram::add(double value)
{
    double index = value > kHistogramMin
                       ? std::log(value / kHistogramMin) / std::log(kGrowth)
                       : 0.0;
    size_t i = std::min(static_cast<size_t>(index), kHistogramBuckets - 1);
    ++buckets_[i];
    ++count_;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (size_t i = 0; i < kHistogramBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
LogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    double rank = q * static_cast<double>(count_);
    uint64_t below = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (static_cast<double>(below + buckets_[i]) >= rank) {
            double lo = kHistogramMin * std::pow(kGrowth, static_cast<double>(i));
            double frac = (rank - static_cast<double>(below)) /
                          static_cast<double>(buckets_[i]);
            return lo * (1.0 + (kGrowth - 1.0) * frac);
        }
        below += buckets_[i];
    }
    return kHistogramMin * std::pow(kGrowth, kHistogramBuckets);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// ---- tracer ---------------------------------------------------------

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

/** Nanoseconds of [@p lo, @p hi) the union of @p intervals covers. */
int64_t
coveredNs(std::vector<std::pair<int64_t, int64_t>> &intervals, int64_t lo,
          int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, cursor = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            cursor = end;
        }
    }
    return covered;
}

bool
isLayerSpan(const std::string &name)
{
    static const char *const layers[] = {"core.", "db.",  "iaca.",
                                         "isa.",  "lp.",  "obs.",
                                         "server.", "sim.", "uarch."};
    for (const char *prefix : layers)
        if (name.rfind(prefix, 0) == 0)
            return true;
    return false;
}

} // namespace

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(id_);
}

Tracer::Scope
Tracer::span(const char *name, uint32_t parent)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.start_ns = nowNs();
    span.end_ns = span.start_ns;
    spans_.push_back(std::move(span));
    return Scope(this, spans_.back().id);
}

void
Tracer::close(uint32_t id)
{
    int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = end;
}

std::map<uint32_t, double>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span &span : spans_)
        if (span.parent != 0)
            children[span.parent].emplace_back(span.start_ns,
                                               span.end_ns);
    std::map<uint32_t, double> self;
    for (const Span &span : spans_) {
        int64_t covered = 0;
        auto it = children.find(span.id);
        if (it != children.end())
            covered = coveredNs(it->second, span.start_ns, span.end_ns);
        self[span.id] =
            static_cast<double>(span.end_ns - span.start_ns - covered) *
            1e-9;
    }
    return self;
}

double
Tracer::selfMs(const std::string &name) const
{
    std::map<uint32_t, double> self = selfTimes();
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += self[span.id];
    return total * 1e3;
}

double
Tracer::unattributedFrac() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // A span opens after its parent, so its root is known by then.
    std::vector<uint32_t> root(spans_.size());
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> layers;
    for (const Span &span : spans_) {
        uint32_t r = span.parent == 0 ? span.id : root[span.parent - 1];
        root[span.id - 1] = r;
        if (span.parent != 0 && isLayerSpan(span.name))
            layers[r].emplace_back(span.start_ns, span.end_ns);
    }
    int64_t unattributed = 0, wall = 0;
    for (const Span &span : spans_) {
        if (span.parent != 0)
            continue;
        wall += span.end_ns - span.start_ns;
        unattributed += span.end_ns - span.start_ns -
                        coveredNs(layers[span.id], span.start_ns,
                                  span.end_ns);
    }
    return wall > 0 ? static_cast<double>(unattributed) / wall : 0;
}

void
Tracer::write(const std::string &path, size_t max_spans) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return;
    out << "{\"traceEvents\": [\n";
    size_t n = std::min(max_spans, spans_.size());
    for (size_t i = 0; i < n; ++i) {
        const Span &span = spans_[i];
        out << "{\"name\": " << jsonString(span.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
            << ", \"ts\": " << span.start_ns / 1000
            << ", \"dur\": " << (span.end_ns - span.start_ns) / 1000
            << ", \"args\": {\"id\": " << span.id
            << ", \"parent\": " << span.parent << "}}"
            << (i + 1 < n ? ",\n" : "\n");
    }
    out << "]}\n";
}

// ---- machine stamp --------------------------------------------------

namespace {

/** Ticks the hypervisor ran something else on the VM's CPUs (all
 *  CPUs, from /proc/stat; 0 where unavailable). */
uint64_t
hostStealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    uint64_t field = 0;
    if (stat >> label && label == "cpu")
        for (int i = 1; i <= 8 && (stat >> field); ++i)
            if (i == 8)
                return field;
    return 0;
}

} // namespace

NoiseCounters
NoiseCounters::now()
{
    NoiseCounters counters;
    counters.steal_ticks = hostStealTicks();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    counters.involuntary_switches =
        static_cast<uint64_t>(usage.ru_nivcsw);
    return counters;
}

std::string
machineStamp(const Args &args, const std::string &layout,
             const NoiseCounters &before, const NoiseCounters &after)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" ", colon + 1));
            break;
        }
    }
    __builtin_cpu_init();
    bool avx512 = __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512vl");

    std::ostringstream out;
    out << "{\"stamp\": {\"cpu\": " << jsonString(cpu)
        << ", \"nproc\": " << hardwareThreads()
        << ", \"avx512f_bw_vl\": " << (avx512 ? "true" : "false")
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"git_sha\": " << jsonString(args.git_sha)
        << ", \"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << formatNumber(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"layout\": " << jsonString(layout)
        << ", \"steal_ticks\": "
        << after.steal_ticks - before.steal_ticks
        << ", \"involuntary_switches\": "
        << after.involuntary_switches - before.involuntary_switches
        << "}}";
    return out.str();
}

// ---- files ----------------------------------------------------------

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

ScopedDir::ScopedDir(std::string path) : path_(std::move(path))
{
    removeTree(path_);
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
}

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec))
        if (entry.is_regular_file())
            total += entry.file_size();
    return total;
}

} // namespace perfbench
