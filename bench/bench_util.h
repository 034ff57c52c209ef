/**
 * @file
 * Shared helpers for the bench programs: cached analysis contexts
 * per microarchitecture over one measurement memo, simple table
 * printing, and the optimization barrier of the perf-gate timing
 * loops.
 *
 * Twelve bench programs each regenerate one table, figure or case
 * study of the paper and print only that, deterministically: CTest's
 * `experiment_<name>` entries diff their stdout against the program's
 * section of EXPERIMENTS.md (cmake/experiments.cmake). The other four
 * (bench_batch_sweep, bench_db_query, bench_predict, bench_http_load)
 * write the timing JSON that tools/check_perf.py compares.
 */

#ifndef UOPS_BENCH_BENCH_UTIL_H
#define UOPS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/characterize.h"
#include "isa/parser.h"
#include "sim/measurement_cache.h"
#include "support/stats.h"

namespace uops::bench {

/** Process-wide instruction database. */
inline const isa::InstrDb &
db()
{
    static const std::unique_ptr<isa::InstrDb> instance =
        isa::buildDefaultDb();
    return *instance;
}

/** Cached per-uarch timing database. */
inline const uarch::TimingDb &
timingDb(uarch::UArch arch)
{
    static std::map<uarch::UArch, std::unique_ptr<uarch::TimingDb>> cache;
    auto it = cache.find(arch);
    if (it == cache.end())
        it = cache
                 .emplace(arch, std::make_unique<uarch::TimingDb>(
                                    db(), arch))
                 .first;
    return *it->second;
}

/** Process-wide measurement memo, shared by every Context harness
 *  and Characterizer of a program: a body measured once (Algorithm
 *  1's blocking kernels for each variant and ablation row, a refresh
 *  generation's repeat of its predecessor's kernels) is simulated
 *  once. Results are bit-identical with or without it. */
inline sim::MeasurementCache &
memo()
{
    static sim::MeasurementCache instance;
    return instance;
}

/** Cached analysis context (instruments + blocking sets). */
struct Context
{
    explicit Context(uarch::UArch arch) : harness(timingDb(arch))
    {
        harness.setCache(&memo());
        instruments = core::calibrateInstruments(harness);
        sse_set = core::BlockingFinder(harness).find(false);
        avx_set =
            uarch::uarchInfo(arch).hasExtension(isa::Extension::Avx)
                ? core::BlockingFinder(harness).find(true)
                : sse_set;
    }

    sim::MeasurementHarness harness;
    core::ChainInstruments instruments;
    core::BlockingSet sse_set;
    core::BlockingSet avx_set;
};

inline Context &
context(uarch::UArch arch)
{
    static std::map<uarch::UArch, std::unique_ptr<Context>> cache;
    auto it = cache.find(arch);
    if (it == cache.end())
        it = cache.emplace(arch, std::make_unique<Context>(arch)).first;
    return *it->second;
}

/** Characterize one named variant on one uarch (full pipeline). */
inline core::InstrCharacterization
characterizeOne(uarch::UArch arch, const std::string &variant_name)
{
    Context &ctx = context(arch);
    const auto *v = db().byName(variant_name);
    if (v == nullptr)
        throw std::runtime_error("unknown variant " + variant_name);

    core::InstrCharacterization out;
    out.variant = v;
    core::LatencyAnalyzer lat(ctx.harness, ctx.instruments);
    out.latency = lat.analyze(*v);
    core::PortUsageAnalyzer ports(ctx.harness, ctx.sse_set, ctx.avx_set);
    out.ports = ports.analyze(*v, out.latency.maxLatency());
    core::ThroughputAnalyzer tp(ctx.harness);
    out.throughput = tp.analyze(*v);
    if (!v->attrs().uses_divider && !out.ports.usage.entries.empty())
        out.tp_ports =
            roundCycles(core::ThroughputAnalyzer::computeFromPortUsage(
                out.ports.usage, uarch::uarchInfo(arch).num_ports));
    return out;
}

/** Keeps @p value as if read, so a timed loop cannot drop the work
 *  that produced it (an empty asm that takes it as an input). */
template <typename T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/** Print a rule line. */
inline void
rule(char c = '-', int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Print a section header. */
inline void
header(const std::string &title)
{
    rule('=');
    std::printf("%s\n", title.c_str());
    rule('=');
}

} // namespace uops::bench

#endif // UOPS_BENCH_BENCH_UTIL_H
