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
        "exact fast-forward (fast_forwarded)",
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

} // namespace

MeasurementHarness::MeasurementHarness(const uarch::TimingDb &timing,
                                       SimOptions sim)
    : timing_(timing), pipeline_(timing, sim)
{
    const isa::InstrDb &db = timing.instrDb();
    serializer_ = db.byName("CPUID_R32i_R32i_R32i_R32i");
    if (serializer_ == nullptr)
        serializer_ = db.byName("CPUID");
    counter_reader_ = db.byName("RDTSC_R32i_R32i");
    if (counter_reader_ == nullptr)
        counter_reader_ = db.byName("RDTSC");
    fatalIf(serializer_ == nullptr || counter_reader_ == nullptr,
            "harness: CPUID/RDTSC must be present in the instruction DB");

    // start <- readPerfCtrs() / end <- readPerfCtrs(), wrapped in
    // serializing instructions; fixed for the harness lifetime.
    for (Kernel *wrapper : {&prologue_, &epilogue_}) {
        wrapper->push_back(isa::makeInstance(*serializer_, {}));
        wrapper->push_back(isa::makeInstance(*counter_reader_, {}));
        wrapper->push_back(isa::makeInstance(*serializer_, {}));
    }
}

PerfCounters
MeasurementHarness::runOnce(const DecodedKernel &decoded, int n) const
{
    // Counter snapshots at the two RDTSC retirements; indices in the
    // logical stream prologue · body×n · epilogue.
    std::vector<size_t> markers;
    markers.reserve(2);
    markers.push_back(1);
    markers.push_back(decoded.prologueSize() +
                      decoded.bodySize() * static_cast<size_t>(n) + 1);

    RunResult result = pipeline_.run(decoded, n, markers);
    countCycles(result);
    return result.snapshots[1] - result.snapshots[0];
}

void
MeasurementHarness::setCache(MeasurementCache *cache)
{
    cache_ = cache;
    key_prefix_.clear();
    timing_ids_.clear();
    if (cache == nullptr)
        return;
    // The prologue and epilogue are serializer, counter read,
    // serializer, so these two ids name all six wrapper tables.
    MeasurementCache::appendId(key_prefix_,
                               cache->coreId(info(), pipeline_.options()));
    for (const isa::InstrVariant *wrapper : {serializer_, counter_reader_})
        MeasurementCache::appendId(
            key_prefix_, cache->timingId(timing_.timing(*wrapper)));
    timing_ids_.assign(timing_.instrDb().size(), kNoTimingId);
}

std::string
MeasurementHarness::cacheKey(const Kernel &body) const
{
    std::string key;
    key.reserve(key_prefix_.size() + 4 + body.size() * 56);
    key += key_prefix_;
    MeasurementCache::appendId(key, static_cast<uint32_t>(body.size()));
    for (const InstrInstance &inst : body) {
        uint32_t &id =
            timing_ids_.at(static_cast<size_t>(inst.variant->id()));
        if (id == kNoTimingId)
            id = cache_->timingId(timing_.timing(*inst.variant));
        MeasurementCache::appendId(key, id);
    }
    MeasurementCache::appendFingerprint(key, body);
    return key;
}

Measurement
MeasurementHarness::measure(const Kernel &body) const
{
    panicIf(body.empty(), "harness: empty benchmark body");

    if (cache_ == nullptr)
        return measureUncached(body);

    MeasurementCache::Key key(cacheKey(body));
    if (auto hit = cache_->lookup(key))
        return *hit;
    Measurement m = measureUncached(body);
    cache_->insert(std::move(key), m);
    return m;
}

Measurement
MeasurementHarness::measureUncached(const Kernel &body) const
{
    // Decode the body (µop selection, idiom and fusion analysis) once;
    // both unroll factors reuse the template.
    DecodedKernel decoded(timing_, prologue_, body, epilogue_);
    PerfCounters small = runOnce(decoded, kUnrollSmall);
    PerfCounters diff = runOnce(decoded, kUnrollLarge) - small;

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
