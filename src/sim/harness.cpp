#include "harness.h"

#include "sim/measurement_cache.h"
#include "support/obs/metrics.h"
#include "support/status.h"

namespace uops::sim {

using isa::InstrInstance;
using isa::Kernel;

namespace {

/** timing_ids_ slot of a variant not interned yet. */
constexpr uint32_t kNoTimingId = UINT32_MAX;

obs::Counter &
simCycles(const char *mode)
{
    return obs::Registry::global().counter(
        "uops_sim_cycles_total",
        "Algorithm-2 core cycles, stepped (simulated) or skipped by "
        "exact fast-forward (fast_forwarded); a measurement adds one "
        "n = 110 run whose prefix gives the n = 10 counters, or both "
        "runs for a divider or copy-fusing body",
        {{"mode", mode}});
}

/** Count one run's cycles. Once per run, never per cycle: a shared
 *  atomic bumped every cycle would slow the sweep's workers. */
void
countCycles(const RunResult &result)
{
    static obs::Counter &simulated = simCycles("simulated");
    static obs::Counter &skipped = simCycles("fast_forwarded");
    simulated.inc(static_cast<uint64_t>(result.simulated_cycles));
    skipped.inc(
        static_cast<uint64_t>(result.cycles - result.simulated_cycles));
}

/** False for the two kinds of body whose n = 10 run is not a prefix of
 *  the n = 110 run (harness.h): one that uses the divider, and one
 *  whose last instruction fuses with the next copy's first. */
bool
oneRunSuffices(const DecodedKernel &decoded)
{
    const size_t size = decoded.bodySize();
    if (decoded.at(size - 1).fused != nullptr)
        return false;
    for (size_t i = 0; i < size; ++i)
        for (const uarch::UopSpec &spec : *decoded.at(i).uops)
            if (spec.div_occupancy > 0)
                return false;
    return true;
}

} // namespace

MeasurementHarness::MeasurementHarness(const uarch::TimingDb &timing,
                                       SimOptions sim)
    : timing_(timing), pipeline_(timing, sim)
{
}

RunResult
MeasurementHarness::runOnce(const DecodedKernel &decoded, int n,
                            int prefix_copies) const
{
    RunResult result = pipeline_.run(decoded, n, prefix_copies);
    countCycles(result);
    return result;
}

void
MeasurementHarness::setCache(MeasurementCache *cache)
{
    cache_ = cache;
    timing_ids_.clear();
    if (cache == nullptr)
        return;
    core_id_ = cache->coreId(info(), pipeline_.options());
    timing_ids_.assign(timing_.instrDb().size(), kNoTimingId);
}

std::string_view
MeasurementHarness::cacheKey(const Kernel &body) const
{
    panicIf(cache_ == nullptr, "harness: cacheKey without a cache");
    key_.clear();
    MeasurementCache::appendId(key_, core_id_);
    for (const InstrInstance &inst : body) {
        MeasurementCache::appendInstr(key_, inst);
        uint32_t &id =
            timing_ids_.at(static_cast<size_t>(inst.variant->id()));
        if (id == kNoTimingId)
            id = cache_->timingId(timing_.timing(*inst.variant));
        MeasurementCache::appendId(key_, id);
    }
    return key_;
}

Measurement
MeasurementHarness::measure(const Kernel &body) const
{
    panicIf(body.empty(), "harness: empty benchmark body");

    if (cache_ == nullptr)
        return measureUncached(body);

    std::string_view key = cacheKey(body);
    if (auto hit = cache_->lookup(key))
        return *hit;
    Measurement m = measureUncached(body);
    cache_->insert(key, m);
    return m;
}

Measurement
MeasurementHarness::measureUncached(const Kernel &body) const
{
    // Decode the body (µop selection, idiom and fusion analysis) once;
    // both unroll factors reuse the template. The n = 10 counters are
    // the n = 110 run's prefix unless one of the two exceptions of the
    // file comment applies.
    DecodedKernel decoded(timing_, body);
    PerfCounters diff;
    if (oneRunSuffices(decoded)) {
        RunResult run = runOnce(decoded, kUnrollLarge, kUnrollSmall);
        diff = run.final - run.prefix;
    } else {
        PerfCounters small = runOnce(decoded, kUnrollSmall).final;
        diff = runOnce(decoded, kUnrollLarge).final - small;
    }

    constexpr double scale = kUnrollLarge - kUnrollSmall;
    Measurement m;
    m.cycles = static_cast<double>(diff.cycles) / scale;
    for (int p = 0; p < kMaxPorts; ++p)
        m.port_uops[static_cast<size_t>(p)] =
            static_cast<double>(diff.port_uops[static_cast<size_t>(p)]) /
            scale;
    m.uops_issued = static_cast<double>(diff.uops_issued) / scale;
    m.uops_eliminated = static_cast<double>(diff.uops_eliminated) / scale;
    return m;
}

} // namespace uops::sim
