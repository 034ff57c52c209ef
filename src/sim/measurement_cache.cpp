#include "sim/measurement_cache.h"

#include <functional>
#include <string_view>

#include "support/status.h"

namespace uops::sim {

namespace {

/** Append @p v as sizeof(T) native-order bytes, in one copy. */
template <typename T>
void
put(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

/** @p v at width T; a value outside T's range is a bug upstream. */
template <typename T, typename Wide>
T
narrow(Wide v, const char *what)
{
    panicIf(!std::in_range<T>(v), "MeasurementCache: ", what, " ", v,
            " does not fit the key");
    return static_cast<T>(v);
}

} // namespace

MeasurementCache::Key::Key(std::string key_bytes)
    : bytes(std::move(key_bytes)),
      hash(std::hash<std::string_view>{}(bytes))
{
}

void
MeasurementCache::appendId(std::string &out, uint32_t id)
{
    put(out, id);
}

void
MeasurementCache::appendFingerprint(std::string &out,
                                    const isa::Kernel &body)
{
    // Fixed widths and explicit counts keep the encoding injective.
    for (const isa::InstrInstance &inst : body) {
        put(out, narrow<uint16_t>(inst.variant->id(), "variant id"));
        put(out, inst.div_class);
        put(out, narrow<uint8_t>(inst.ops.size(), "operand count"));
        for (const isa::OperandValue &op : inst.ops) {
            put(out, op.reg.cls);
            put(out, narrow<int8_t>(op.reg.index, "register index"));
            put(out, static_cast<int32_t>(op.mem.tag));
            put(out, op.mem.base.cls);
            put(out, narrow<int8_t>(op.mem.base.index, "base index"));
            put(out, static_cast<int64_t>(op.imm));
        }
    }
}

std::string
MeasurementCache::fingerprint(const isa::Kernel &body)
{
    std::string key;
    key.reserve(body.size() * 52);
    appendFingerprint(key, body);
    return key;
}

uint32_t
MeasurementCache::coreId(const uarch::UArchInfo &info,
                         const SimOptions &options)
{
    // Blank what names the generation rather than the core; every
    // other field, present or added later, is compared.
    uarch::UArchInfo core = info;
    core.arch = {};
    core.short_name.clear();
    core.full_name.clear();
    core.processor.clear();
    core.extensions.clear();

    std::lock_guard<std::mutex> lock(ids_mutex_);
    for (size_t i = 0; i < cores_.size(); ++i)
        if (cores_[i].first == core && cores_[i].second == options)
            return static_cast<uint32_t>(i);
    cores_.emplace_back(std::move(core), options);
    return narrow<uint32_t>(cores_.size() - 1, "core id");
}

size_t
MeasurementCache::TimingHash::operator()(
    const uarch::TimingInfo &timing) const noexcept
{
    // Buckets only; equality is the defaulted operator==.
    size_t h = timing.uops.size();
    auto mix = [&h](size_t v) { h = h * 1000003u ^ v; };
    mix(timing.zero_idiom);
    mix(timing.dep_breaking_same_reg);
    mix(timing.mov_elim);
    mix(timing.same_reg_uops.has_value());
    for (const uarch::UopSpec &uop : timing.uops) {
        mix(uop.ports);
        mix(static_cast<size_t>(uop.latency));
        mix(uop.reads.size());
        mix(uop.writes.size());
    }
    return h;
}

uint32_t
MeasurementCache::timingId(const uarch::TimingInfo &timing)
{
    std::lock_guard<std::mutex> lock(ids_mutex_);
    return timings_
        .try_emplace(timing,
                     narrow<uint32_t>(timings_.size(), "timing id"))
        .first->second;
}

MeasurementCache::Shard &
MeasurementCache::shardFor(const Key &key) const
{
    return shards_[key.hash % kNumShards];
}

std::optional<Measurement>
MeasurementCache::lookup(const Key &key) const
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
MeasurementCache::insert(Key key, const Measurement &m)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // First writer wins: concurrent writers computed the same value
    // (the measurement is a pure function of the key).
    shard.map.emplace(std::move(key), m);
}

size_t
MeasurementCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.map.size();
    }
    return n;
}

} // namespace uops::sim
