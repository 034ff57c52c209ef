/**
 * @file
 * Shared pieces of the repository benchmark: command-line arguments,
 * the result record printed as the last stdout line, small order
 * statistics, the span recorder behind the traced run, and the
 * machine stamp every result carries.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "uarch/timing_db.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string git_sha = "unknown";
};

/** One printed metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * What one run reports: the correctness verdict, attempted/failed
 * operation counts and the metrics (end-to-end or per-layer,
 * depending on --trace). Failure messages go to stderr.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, Metric>> metrics;

    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    /** Record a failed check without counting an attempt. */
    void fail(const std::string &what);

    /** Fold another result's counts and verdict into this one. */
    void absorb(const Result &other);

    /** The last stdout line: {"correct", "attempted", "failed",
     *  "metrics"}. */
    std::string json() const;

  private:
    size_t reported_failures_ = 0;
};

/** The process-wide instruction tables (the first call parses them). */
const uops::isa::InstrDb &instrDb();

/** Median wall time of building the instruction tables. */
double isaTablesSeconds();

/** Ground-truth timing tables per uarch (lazily synthesized; one
 *  thread at a time). */
const uops::uarch::TimingDb &timingDb(uops::uarch::UArch arch);

double median(std::vector<double> values);

/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/**
 * Latency histogram with logarithmic buckets 1% wide (20 KiB), so a
 * run's memory does not grow with its request count. Quantiles
 * interpolate inside a bucket.
 */
class LogHistogram
{
  public:
    LogHistogram();

    void add(double value);
    void merge(const LogHistogram &other);
    uint64_t count() const { return count_; }

    /** Quantile @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Span recorder for the traced run. Spans are recorded around calls
 * into the program's layers, kept in memory and written as a Chrome
 * trace at exit. A span's self time is its duration minus the part
 * of it its child spans cover. Disabled recorders cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint32_t id = 0;
        uint32_t parent = 0;  ///< 0: root
        int64_t start_ns = 0;
        int64_t end_ns = 0;
    };

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, uint32_t id) : tracer_(tracer), id_(id) {}
        Scope(Scope &&other) noexcept
            : tracer_(other.tracer_), id_(other.id_)
        {
            other.tracer_ = nullptr;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

        uint32_t id() const { return id_; }

      private:
        Tracer *tracer_;
        uint32_t id_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span under @p parent (0: root). Thread-safe. */
    Scope span(const char *name, uint32_t parent = 0);

    /** Total self time of every span called @p name, ms. */
    double selfMs(const std::string &name) const;

    /** Share of the root spans' time that no layer span under them
     *  covers. A root span marks a traced phase; a layer span is one
     *  named after a layer of the program (`core.`, `db.`, `isa.`,
     *  `server.`, `sim.`, ...), so the benchmark's own client spans
     *  count as unattributed. */
    double unattributedFrac() const;

    /** Write the spans as Chrome trace events (at most @p max_spans). */
    void write(const std::string &path, size_t max_spans) const;

  private:
    void close(uint32_t id);
    std::map<uint32_t, double> selfTimes() const;

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< id - 1 indexes this
};

/** Snapshot of the host noise counters: steal ticks and this
 *  process's involuntary context switches. */
struct NoiseCounters
{
    uint64_t steal_ticks = 0;
    uint64_t involuntary_switches = 0;

    static NoiseCounters now();
};

/**
 * The machine stamp printed before the result line: CPU model,
 * nproc, AVX-512F/BW/VL availability (the scan executor's dispatch
 * condition), compiler and build type, git sha, seed, the run's
 * thread/connection layout, and the noise counters over the run.
 */
std::string machineStamp(const Args &args, const std::string &layout,
                         const NoiseCounters &before,
                         const NoiseCounters &after);

/** Hardware threads available. */
unsigned hardwareThreads();

/** Remove a directory tree (ignores errors). */
void removeTree(const std::string &path);

/** A run's scratch directory: emptied on creation, removed on exit. */
class ScopedDir
{
  public:
    explicit ScopedDir(std::string path);
    ~ScopedDir() { removeTree(path_); }
    ScopedDir(const ScopedDir &) = delete;
    ScopedDir &operator=(const ScopedDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Total bytes of the regular files directly under @p dir. */
uint64_t directoryBytes(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
