/**
 * @file
 * Lock-free metrics primitives and the process metrics registry.
 *
 * Three instrument kinds, all safe for concurrent recording with
 * relaxed atomics (one fetch_add per event on the hot path):
 *
 *   Counter    monotonically increasing uint64 (requests, errors)
 *   Gauge      last-write-wins double (generation, inflight)
 *   Histogram  26 power-of-two buckets over unsigned values —
 *              the generalization of the latency histogram that
 *              used to live privately in server/service.h: bucket i
 *              holds values whose bit_width is i (bucket 0 is the
 *              exact value 0, the last bucket is open-ended), so
 *              recording stays a single relaxed increment; a
 *              scraper reads quantiles off the bucket upper bounds.
 *
 * A Registry owns instruments keyed by (name, sorted label set) and
 * renders the whole set in the Prometheus text exposition format
 * (renderPrometheus): "# HELP"/"# TYPE" per family, cumulative
 * `_bucket{le=...}` series plus `_sum`/`_count` for histograms,
 * escaped label values. Registration is mutex-guarded and idempotent
 * — asking for an existing (name, labels) pair returns the same
 * instrument, so callers can re-register freely — while recording
 * through the returned reference is lock-free. Instrument addresses
 * are stable for the registry's lifetime.
 *
 * Callback instruments (counterCallback/gaugeCallback) mirror values
 * maintained elsewhere (cache stats structs, engine inflight) into
 * the exposition without double bookkeeping: the callback is invoked
 * at render time only.
 *
 * Naming conventions (enforced only by review, not code): every
 * series is prefixed `uops_`, counters end in `_total`, durations
 * are in microseconds and say so (`_us`), label names are
 * lower_snake. Invalid metric/label *syntax* panics at registration
 * — a malformed name is a bug in the caller, not runtime input.
 */

#ifndef UOPS_SUPPORT_OBS_METRICS_H
#define UOPS_SUPPORT_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uops::obs {

/** Label key/value pairs; order-insensitive (canonicalized). */
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed,
            std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

class Histogram
{
  public:
    static constexpr size_t kBuckets = 26;

    /** Upper bound of bucket @p i ((2^i)-1; bucket 0 is exactly 0).
     *  The last bucket is open-ended — callers render it as +Inf. */
    static uint64_t bucketUpperBound(size_t i);

    void
    observe(uint64_t value)
    {
        size_t bucket = bucketIndex(value);
        buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    static size_t bucketIndex(uint64_t value);

    struct Snapshot
    {
        std::array<uint64_t, kBuckets> buckets{};
        uint64_t count = 0;
        uint64_t sum = 0;
    };

    Snapshot snapshot() const;

  private:
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> sum_{0};
};

/**
 * Owns instruments; renders Prometheus text. Thread-safe.
 */
class Registry
{
  public:
    using Callback = std::function<double()>;

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register-or-fetch. @p help is fixed by the first call for a
     *  family; a kind mismatch for an existing family panics. */
    Counter &counter(const std::string &name, const std::string &help,
                     LabelSet labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 LabelSet labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help, LabelSet labels = {});

    /** Mirror an externally-maintained monotone counter / level into
     *  the exposition; @p callback runs at render time. */
    void counterCallback(const std::string &name,
                         const std::string &help, LabelSet labels,
                         Callback callback);
    void gaugeCallback(const std::string &name, const std::string &help,
                       LabelSet labels, Callback callback);

    /**
     * The full registry in Prometheus text exposition format
     * (text/plain; version=0.0.4): families sorted by name, series
     * sorted by label key, cumulative histogram buckets.
     */
    std::string renderPrometheus() const;

    /** Process-wide registry for components without an owner to hand
     *  them one (catalog recovery counters, CLI sweeps). Server-owned
     *  metrics live in the service's own registry; /metrics renders
     *  both. */
    static Registry &global();

  private:
    enum class Kind : uint8_t {
        Counter,
        Gauge,
        Histogram,
        CounterCallback,
        GaugeCallback,
    };

    struct Series
    {
        LabelSet labels;             ///< canonical (sorted) order
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        Callback callback;
    };

    struct Family
    {
        Kind kind = Kind::Counter;
        std::string help;
        std::map<std::string, Series> series;  ///< by label key
    };

    Series &seriesFor(const std::string &name, const std::string &help,
                      Kind kind, LabelSet labels);

    mutable std::mutex mutex_;
    std::map<std::string, Family> families_;
};

} // namespace uops::obs

#endif // UOPS_SUPPORT_OBS_METRICS_H
