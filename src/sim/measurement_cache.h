/**
 * @file
 * Thread-safe, sharded memoization of harness measurements.
 *
 * The characterization algorithms are massively redundant at the
 * kernel level: blocking-set discovery measures every candidate in
 * isolation, Algorithm 1 re-measures the pure blocking kernels for
 * every variant, and the latency/throughput analyzers rebuild
 * byte-identical chains across variants sharing an operand shape.
 * The refresh generations repeat whole uarches on top of that: WSM
 * simulates on NHM's core with NHM's µop tables, BDW on HSW's, KBL
 * and CFL on SKL's. Those repeats are served from a memo-cache
 * instead of the simulator.
 *
 * A Measurement is a pure function of what a MeasurementHarness run
 * reads, and the key names exactly that:
 *
 *  - the simulated core (coreId): the UArchInfo with its identity
 *    fields (arch, short_name, full_name, processor, extensions)
 *    blanked — the pipeline and the decoder never read those — plus
 *    the harness's SimOptions, so a budgeted harness never shares
 *    entries with an unbudgeted one;
 *  - the µop table (TimingInfo) of every instruction of the prologue,
 *    the body and the epilogue (timingId);
 *  - the body's operand bindings (fingerprint), which include each
 *    instruction's variant id.
 *
 * Nothing else can change the result: Algorithm 2's unroll factors
 * and the move-elimination period are constants, the cycle limits
 * only decide whether a run completes, and idle skipping is
 * cycle-exact. So two harnesses share an entry exactly when they
 * would simulate the same thing, whatever uarch they are named for.
 *
 * Core and timing ids are interned by value (defaulted operator==),
 * per cache instance: an id means something only inside the cache
 * that issued it. The full key is stored, so lookups are exact — a
 * hash collision can never silently return a wrong Measurement,
 * which would break the determinism contract (cache-hit results must
 * be bit-identical to cache-miss results).
 *
 * The table is sharded by key hash; each shard has its own mutex, so
 * the batch engine shares one cache across all uarches and worker
 * threads with negligible contention (simulator runs are
 * milliseconds; the critical section is a map probe). A key is
 * hashed once, and that hash picks both the shard and the bucket.
 *
 * Harnesses sharing a cache must share one instruction database,
 * since the key names variants by id.
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
#include <utility>
#include <vector>

#include "isa/kernel.h"
#include "sim/harness.h"

namespace uops::sim {

class MeasurementCache
{
  public:
    /** An exact key and its hash, computed once. */
    struct Key
    {
        std::string bytes;
        size_t hash;

        explicit Key(std::string key_bytes);

        bool
        operator==(const Key &other) const
        {
            return hash == other.hash && bytes == other.bytes;
        }
    };

    /** Canonical, exact fingerprint of @p body's operand bindings. */
    static std::string fingerprint(const isa::Kernel &body);

    /** Append fingerprint(@p body) to @p out. */
    static void appendFingerprint(std::string &out,
                                  const isa::Kernel &body);

    /** Append a core or timing id to a key. */
    static void appendId(std::string &out, uint32_t id);

    /** Id of the core @p info simulates under @p options. */
    uint32_t coreId(const uarch::UArchInfo &info,
                    const SimOptions &options);

    /** Id of the µop table @p timing. */
    uint32_t timingId(const uarch::TimingInfo &timing);

    /** Cached measurement for @p key, if present. */
    std::optional<Measurement> lookup(const Key &key) const;

    /** Memoize @p m under @p key (first writer wins). */
    void insert(Key key, const Measurement &m);

    size_t size() const;
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

  private:
    struct KeyHash
    {
        size_t operator()(const Key &key) const noexcept
        {
            return key.hash;
        }
    };

    struct TimingHash
    {
        size_t operator()(const uarch::TimingInfo &timing) const noexcept;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key, Measurement, KeyHash> map;
    };

    /** Enough lock shards that sweep workers rarely meet. */
    static constexpr size_t kNumShards = 16;

    Shard &shardFor(const Key &key) const;

    mutable std::array<Shard, kNumShards> shards_;
    mutable std::atomic<uint64_t> hits_{0};
    mutable std::atomic<uint64_t> misses_{0};

    /** Interned cores and µop tables; an id is an index / value. */
    std::mutex ids_mutex_;
    std::vector<std::pair<uarch::UArchInfo, SimOptions>> cores_;
    std::unordered_map<uarch::TimingInfo, uint32_t, TimingHash>
        timings_;
};

} // namespace uops::sim

#endif // UOPS_SIM_MEASUREMENT_CACHE_H
