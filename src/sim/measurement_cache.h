/**
 * @file
 * Thread-safe, sharded memoization of harness measurements.
 *
 * The characterization algorithms are massively redundant at the
 * kernel level: blocking-set discovery measures every candidate in
 * isolation, Algorithm 1 re-measures the pure blocking kernels for
 * every variant, and the latency/throughput analyzers rebuild
 * byte-identical chains across variants sharing an operand shape.
 * Since a completed Measurement is a pure function of the kernel
 * bytes on a given timing database, those repeats can be served from
 * a memo-cache instead of the simulator. Nothing else can change it:
 * Algorithm 2's unroll factors and the move-elimination period are
 * constants, the cycle limits only decide whether a run completes,
 * and idle skipping is cycle-exact.
 *
 * Keys are canonical kernel fingerprints: an exact byte serialization
 * of every instruction instance (variant id, divider value class,
 * operand bindings). The full key is stored, so lookups are exact —
 * a hash collision can never silently return a wrong Measurement,
 * which would break the determinism contract (cache-hit results must
 * be bit-identical to cache-miss results).
 *
 * The table is sharded by key hash; each shard has its own mutex, so
 * the batch engine can share one cache per microarchitecture across
 * all worker threads with negligible contention (simulator runs are
 * milliseconds; the critical section is a map probe).
 *
 * A cache must only be shared between harnesses with the same timing
 * database; the batch engine keeps one per uarch.
 */

#ifndef UOPS_SIM_MEASUREMENT_CACHE_H
#define UOPS_SIM_MEASUREMENT_CACHE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "isa/kernel.h"
#include "sim/harness.h"

namespace uops::sim {

class MeasurementCache
{
  public:
    /** Canonical, exact fingerprint of @p body. */
    static std::string fingerprint(const isa::Kernel &body);

    /** Cached measurement for @p key, if present. */
    std::optional<Measurement> lookup(const std::string &key) const;

    /** Memoize @p m under @p key (first writer wins). */
    void insert(const std::string &key, const Measurement &m);

    size_t size() const;
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, Measurement> map;
    };

    /** Enough lock shards that sweep workers rarely meet. */
    static constexpr size_t kNumShards = 16;

    Shard &shardFor(const std::string &key) const;

    mutable std::array<Shard, kNumShards> shards_;
    mutable std::atomic<uint64_t> hits_{0};
    mutable std::atomic<uint64_t> misses_{0};
};

} // namespace uops::sim

#endif // UOPS_SIM_MEASUREMENT_CACHE_H
