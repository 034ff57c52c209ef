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
 * reads, and the key names exactly that, in this order:
 *
 *  - the simulated core (coreId): the UArchInfo with its identity
 *    fields (arch, short_name, full_name, processor, extensions)
 *    blanked — the pipeline and the decoder never read those — plus
 *    the harness's SimOptions, so a budgeted harness never shares
 *    entries with an unbudgeted one;
 *  - then per body instruction: its variant id, which fixes the
 *    layout of what follows; its divider value class; each operand's
 *    binding, as far as its OpKind binds one (appendInstr); and the
 *    id of its µop table (timingId).
 *
 * An operand encodes only the fields of its kind: a Reg operand its
 * register's class and index, a Mem operand its location tag and base
 * register, an Imm operand its value, a Flags operand nothing. The
 * other fields of an OperandValue are unread: the decoder and the
 * TimingDb read a register (regOf) only on Reg operands and mem.tag /
 * mem.base only on Mem operands. Ids and signed values are varints,
 * registers two bytes, so a typical instruction takes under a dozen
 * bytes. Since the variant id fixes each instruction's layout, the
 * encoding is prefix-free and the key is exact without counts.
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
 * A lookup takes a view of the key, which the harness builds in a
 * buffer it reuses, so a hit allocates nothing; only an insert copies
 * the key, into a string of exactly its size.
 *
 * The table is sharded by key hash; each shard has its own mutex, so
 * the batch engine shares one cache across all uarches and worker
 * threads with negligible contention (simulator runs are
 * milliseconds; the critical section is a map probe). A probe is
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
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/kernel.h"
#include "sim/harness.h"

namespace uops::sim {

class MeasurementCache
{
  public:
    /** Append the exact encoding of @p inst: variant id, divider
     *  value class and the binding of each operand (file comment). */
    static void appendInstr(std::string &out,
                            const isa::InstrInstance &inst);

    /** Canonical, exact fingerprint of @p body's operand bindings:
     *  appendInstr of each instruction. */
    static std::string fingerprint(const isa::Kernel &body);

    /** Append a core or timing id to a key. */
    static void appendId(std::string &out, uint32_t id);

    /** Id of the core @p info simulates under @p options. */
    uint32_t coreId(const uarch::UArchInfo &info,
                    const SimOptions &options);

    /** Id of the µop table @p timing. */
    uint32_t timingId(const uarch::TimingInfo &timing);

    /** Cached measurement for @p key, if present. Allocates nothing. */
    std::optional<Measurement> lookup(std::string_view key) const;

    /** Memoize @p m under a copy of @p key (first writer wins). */
    void insert(std::string_view key, const Measurement &m);

    size_t size() const;
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

  private:
    /** A key's bytes and their hash, which picks shard and bucket.
     *  The table stores Key<std::string> and is probed with
     *  Key<std::string_view>, so only an insert copies the bytes. */
    template <typename Bytes>
    struct Key
    {
        Bytes bytes;
        size_t hash;
    };

    static Key<std::string_view> probe(std::string_view key);

    /** Transparent over stored keys and probes. */
    struct KeyHash
    {
        using is_transparent = void;

        template <typename Bytes>
        size_t operator()(const Key<Bytes> &key) const noexcept
        {
            return key.hash;
        }
    };

    struct KeyEqual
    {
        using is_transparent = void;

        template <typename A, typename B>
        bool operator()(const Key<A> &a, const Key<B> &b) const noexcept
        {
            return a.hash == b.hash &&
                   std::string_view(a.bytes) == std::string_view(b.bytes);
        }
    };

    struct TimingHash
    {
        size_t operator()(const uarch::TimingInfo &timing) const noexcept;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key<std::string>, Measurement, KeyHash,
                           KeyEqual>
            map;
    };

    /** Enough lock shards that sweep workers rarely meet. */
    static constexpr size_t kNumShards = 16;

    Shard &shardFor(size_t hash) const
    {
        return shards_[hash % kNumShards];
    }

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
