#include "sim/measurement_cache.h"

#include <functional>

#include "support/status.h"

namespace uops::sim {

namespace {

/** @p v at width T; a value outside T's range is a bug upstream. */
template <typename T, typename Wide>
T
narrow(Wide v, const char *what)
{
    panicIf(!std::in_range<T>(v), "MeasurementCache: ", what, " ", v,
            " does not fit the key");
    return static_cast<T>(v);
}

/** Append @p v as a little-endian base-128 varint: seven bits a byte,
 *  the high bit set on every byte but the last. */
void
putVarint(std::string &out, uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out += static_cast<char>(v | 0x80);
    out += static_cast<char>(v);
}

/** Append signed @p v zigzag-mapped (0, -1, 1, -2, ... -> 0, 1, 2, 3,
 *  ...), so small magnitudes of either sign take one byte. */
void
putSigned(std::string &out, int64_t v)
{
    putVarint(out, (static_cast<uint64_t>(v) << 1) ^
                       static_cast<uint64_t>(v >> 63));
}

/** Append @p reg as its class and index, one byte each. */
void
putReg(std::string &out, const isa::Reg &reg)
{
    out += static_cast<char>(reg.cls);
    out += static_cast<char>(narrow<int8_t>(reg.index, "register index"));
}

} // namespace

void
MeasurementCache::appendId(std::string &out, uint32_t id)
{
    putVarint(out, id);
}

void
MeasurementCache::appendInstr(std::string &out,
                              const isa::InstrInstance &inst)
{
    const isa::InstrVariant &variant = *inst.variant;
    panicIf(inst.ops.size() != variant.numOperands(),
            "MeasurementCache: ", variant.name(), " bound to ",
            inst.ops.size(), " operands");
    putVarint(out, narrow<uint32_t>(variant.id(), "variant id"));
    out += static_cast<char>(inst.div_class);
    for (size_t i = 0; i < inst.ops.size(); ++i) {
        const isa::OperandValue &op = inst.ops[i];
        switch (variant.operand(i).kind) {
          case isa::OpKind::Reg:
            putReg(out, op.reg);
            break;
          case isa::OpKind::Mem:
            putSigned(out, op.mem.tag);
            putReg(out, op.mem.base);
            break;
          case isa::OpKind::Imm:
            putSigned(out, op.imm);
            break;
          case isa::OpKind::Flags:
            break;
        }
    }
}

std::string
MeasurementCache::fingerprint(const isa::Kernel &body)
{
    std::string key;
    for (const isa::InstrInstance &inst : body)
        appendInstr(key, inst);
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

MeasurementCache::Key<std::string_view>
MeasurementCache::probe(std::string_view key)
{
    return {key, std::hash<std::string_view>{}(key)};
}

std::optional<Measurement>
MeasurementCache::lookup(std::string_view key) const
{
    Key<std::string_view> k = probe(key);
    Shard &shard = shardFor(k.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(k);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
MeasurementCache::insert(std::string_view key, const Measurement &m)
{
    Key<std::string_view> k = probe(key);
    Shard &shard = shardFor(k.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // First writer wins: concurrent writers computed the same value
    // (the measurement is a pure function of the key). The stored
    // copy is built only when the key is new.
    if (!shard.map.contains(k))
        shard.map.emplace(Key<std::string>{std::string(key), k.hash}, m);
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
