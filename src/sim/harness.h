/**
 * @file
 * Measurement harness (Algorithm 2, Section 6.2).
 *
 * Reproduces the paper's kernel-space measurement routine on top of
 * the simulated core:
 *
 *   saveState / disablePreemptionAndInterrupts   (no-ops in simulation)
 *   serializing instruction                       CPUID
 *   start <- readPerfCtrs()                       RDTSC-modeled reader
 *   serializing instruction                       CPUID
 *   AsmCode (n copies of the benchmark body)
 *   serializing instruction                       CPUID
 *   end <- readPerfCtrs()
 *   serializing instruction                       CPUID
 *
 * The counter-read and serializing overhead is cancelled exactly as in
 * the paper: the harness takes the counters with n = 10 and with
 * n = 110 copies of the body, subtracts the two measurements and
 * divides by 100. The paper repeats this 100 times to average out
 * hardware noise; the simulator is exact and every run starts from
 * power-on state, so one pair of counter readings is the whole
 * measurement, and mostly one run gives both (below).
 *
 * The wrapper is not simulated: each run is the n body copies alone,
 * and the measurement is (final(110) - final(10)) / 100 of their
 * end-of-run counters. This is bit-identical to simulating the full
 * listing above and differencing the counters at the two RDTSC
 * retirements, because the wrapper is neutral:
 *
 *  - The body starts on an empty core. The prologue ends in CPUID,
 *    and nothing younger renames until CPUID has fully retired. At
 *    that point no µop is in flight; every register value has been
 *    produced, in the GPR domain, which never pays a bypass delay;
 *    there is no memory value; the move-elimination phase is 0 and
 *    the upper YMM state is clean; the divider is free. That is the
 *    power-on state, shifted in time.
 *  - The epilogue adds a constant. It starts with CPUID, which waits
 *    until every body µop has retired. Its µops are GPR-domain µops
 *    that read only values already produced (so no bypass delay) and
 *    never use the divider. So after the body drains the epilogue
 *    adds the same cycles and µops to both runs, and they cancel in
 *    the difference.
 *
 * Harness.BodyOnlyMatchesFullAlgorithm2 (tests/harness_test.cpp)
 * checks this bit for bit on all nine uarches against the full
 * listing, materialized as one kernel and read at its two RDTSCs, with
 * a corpus that touches each state the argument relies on.
 *
 * One run suffices for most bodies. The n = 110 run's first ten copies
 * evolve exactly as the n = 10 run does, because a µop's timing never
 * depends on younger µops: every shared resource is taken oldest
 * first. Rename, port binding (by the counts of older waiting µops),
 * reservation-station and reorder-buffer capacity, move elimination
 * and the upper YMM state all work in program order; each port
 * dispatches its oldest ready candidate; retirement is in order. So
 * the harness runs n = 110 once and reads the n = 10 counters off it
 * (Pipeline::run's prefix: the prefix copies' µops, instructions and
 * the clock at which the last of them retired). That still holds when
 * the run is fast-forwarded: the period search starts after the
 * prefix, the cut run matches the uncut one until the cut, and what
 * lies beyond the cut is younger than every prefix µop. Two kinds of
 * body break the argument and keep the two runs:
 *
 *  - The divider. A younger divider µop that is ready can take the
 *    divider ahead of an older one that is not, and so delay it: on
 *    NHM, DIV RBX; DIV RCX; DIVSS XMM2, XMM3; DIVSS XMM4, XMM5 takes
 *    678 prefix cycles against 675 in the n = 10 run.
 *  - Copy-wrapping fusion. The tenth copy's last instruction fuses
 *    with the eleventh copy's first only in the long run: on NHM,
 *    JZ 1; CMP RAX, RBX takes 13 prefix cycles against 12.
 *
 * Harness.OneRunMatchesTwoRuns checks the prefix against the n = 10
 * run on all nine uarches, and that both exceptions are real.
 *
 * Hot path: the body is decoded into a µop template once per measure()
 * call and the pipeline unrolls it logically (sim/decoded.h) — the
 * n-copy kernel is never materialized, and once the copies reach a
 * steady state the rest of the run is fast-forwarded exactly
 * (sim/pipeline.h); a materialized kernel is the reference both are
 * tested against. Each run adds its stepped and fast-forwarded cycles
 * to uops_sim_cycles_total in obs::Registry::global(). When a
 * MeasurementCache is attached (setCache), a run is served from the
 * cache whenever any harness sharing it has simulated the same core,
 * µop tables and operand bindings; cached results are bit-identical
 * to recomputation because a Measurement is a pure function of
 * exactly those inputs.
 */

#ifndef UOPS_SIM_HARNESS_H
#define UOPS_SIM_HARNESS_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "isa/kernel.h"
#include "sim/pipeline.h"

namespace uops::sim {

class MeasurementCache;

/** One per-body-execution measurement (averages over the copies). */
struct Measurement
{
    double cycles = 0.0;                       ///< Core cycles per body.
    std::array<double, kMaxPorts> port_uops{}; ///< µops per port per body.
    double uops_issued = 0.0;
    double uops_eliminated = 0.0;

    double
    totalPortUops() const
    {
        double total = 0.0;
        for (double u : port_uops)
            total += u;
        return total;
    }
};

/** Body copies at Algorithm 2's two counter readings; the measurement
 *  is their counter difference divided by kUnrollLarge - kUnrollSmall. */
constexpr int kUnrollSmall = 10;
constexpr int kUnrollLarge = 110;

/**
 * Runs benchmark bodies on the simulated core per Algorithm 2.
 */
class MeasurementHarness
{
  public:
    /**
     * @param sim Options for the underlying pipeline; the defaults
     *            match direct Pipeline construction. A cycle_budget
     *            here bounds each Algorithm-2 run's body cycles
     *            (untrusted-kernel admission control); budgeted and
     *            unbudgeted runs that complete produce bit-identical
     *            measurements.
     */
    explicit MeasurementHarness(const uarch::TimingDb &timing,
                                SimOptions sim = {});

    const uarch::UArchInfo &info() const { return pipeline_.info(); }
    const uarch::TimingDb &timingDb() const { return timing_; }

    /**
     * Attach a measurement memo-cache (nullptr detaches). Any
     * harnesses over one instruction database may share a cache,
     * across uarches and threads: its key names the simulated core
     * and µop tables, so entries are shared exactly where the runs
     * would be identical (sim/measurement_cache.h).
     */
    void setCache(MeasurementCache *cache);

    /** With a cache attached: its id of the simulated core. Harnesses
     *  with equal ids share the cache's entries for a body exactly
     *  when its µop tables are equal too. */
    uint32_t coreId() const { return core_id_; }

    /**
     * Measure one benchmark body.
     *
     * @param body The assembler sequence under measurement.
     * @return Per-body-execution averages.
     */
    Measurement measure(const isa::Kernel &body) const;

    /**
     * The memo-cache key of @p body on this harness: the core id, then
     * per instruction its bindings (MeasurementCache::appendInstr) and
     * its µop table's id. Needs a cache attached. The view is into a
     * buffer the next call reuses, so building a key allocates only
     * while the buffer grows.
     */
    std::string_view cacheKey(const isa::Kernel &body) const;

  private:
    /** measure() without the memo-cache. */
    Measurement measureUncached(const isa::Kernel &body) const;

    /** One Algorithm-2 run with @p n logical body copies and no
     *  wrapper, whose first @p prefix_copies copies are also counted
     *  on their own (RunResult::prefix). */
    RunResult runOnce(const DecodedKernel &decoded, int n,
                      int prefix_copies = 0) const;

    const uarch::TimingDb &timing_;
    Pipeline pipeline_;
    MeasurementCache *cache_ = nullptr;
    /** With a cache: the key's core id. */
    uint32_t core_id_ = 0;
    /** With a cache: timing id by variant id, interned on first use. */
    mutable std::vector<uint32_t> timing_ids_;
    /** With a cache: the last key built, reused by the next. */
    mutable std::string key_;
};

} // namespace uops::sim

#endif // UOPS_SIM_HARNESS_H
