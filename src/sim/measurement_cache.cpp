#include "sim/measurement_cache.h"

#include <functional>

namespace uops::sim {

namespace {

/** Append a 64-bit value as 8 little-endian bytes. */
void
appendU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendI64(std::string &out, int64_t v)
{
    appendU64(out, static_cast<uint64_t>(v));
}

} // namespace

std::string
MeasurementCache::fingerprint(const isa::Kernel &body)
{
    std::string key;
    key.reserve(body.size() * 64);

    for (const isa::InstrInstance &inst : body) {
        appendI64(key, inst.variant->id());
        appendI64(key, static_cast<int64_t>(inst.div_class));
        appendI64(key, static_cast<int64_t>(inst.ops.size()));
        for (const isa::OperandValue &op : inst.ops) {
            appendI64(key, static_cast<int64_t>(op.reg.cls));
            appendI64(key, op.reg.index);
            appendI64(key, op.mem.tag);
            appendI64(key, static_cast<int64_t>(op.mem.base.cls));
            appendI64(key, op.mem.base.index);
            appendI64(key, op.imm);
        }
    }
    return key;
}

MeasurementCache::Shard &
MeasurementCache::shardFor(const std::string &key) const
{
    size_t h = std::hash<std::string>{}(key);
    return shards_[h % kNumShards];
}

std::optional<Measurement>
MeasurementCache::lookup(const std::string &key) const
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
MeasurementCache::insert(const std::string &key, const Measurement &m)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // First writer wins: concurrent writers computed the same value
    // (the measurement is a pure function of the key).
    shard.map.emplace(key, m);
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
