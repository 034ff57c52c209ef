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
 * the paper: the harness runs once with n = 10 and once with n = 110
 * copies of the body, subtracts the two measurements and divides by
 * 100. The paper repeats this 100 times to average out hardware noise;
 * the simulator is exact and every run starts from power-on state, so
 * one pair of runs is the whole measurement.
 *
 * Hot path: the body is decoded into a µop template once per measure()
 * call and the pipeline unrolls it logically (sim/decoded.h) — the
 * n-copy kernel is never materialized, and once the copies reach a
 * steady state the rest of the run is fast-forwarded exactly
 * (sim/pipeline.h); a materialized kernel is the reference both are
 * tested against. Each run adds its stepped and fast-forwarded cycles
 * to uops_sim_cycles_total in obs::Registry::global(). When a
 * MeasurementCache is attached (setCache), byte-identical bodies are
 * served from the cache; cached results are bit-identical to
 * recomputation because a Measurement is a pure function of the key
 * on a fixed timing database.
 */

#ifndef UOPS_SIM_HARNESS_H
#define UOPS_SIM_HARNESS_H

#include <array>

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

/** Body copies in Algorithm 2's two runs; the measurement is their
 *  counter difference divided by kUnrollLarge - kUnrollSmall. */
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
     *            here bounds each Algorithm-2 run (untrusted-kernel
     *            admission control); budgeted and unbudgeted runs
     *            that complete produce bit-identical measurements.
     */
    explicit MeasurementHarness(const uarch::TimingDb &timing,
                                SimOptions sim = {});

    const uarch::UArchInfo &info() const { return pipeline_.info(); }
    const uarch::TimingDb &timingDb() const { return timing_; }

    /**
     * Attach a measurement memo-cache (nullptr detaches). The cache
     * must only be shared between harnesses with the same timing
     * database; it may be shared across threads.
     */
    void setCache(MeasurementCache *cache) { cache_ = cache; }

    /**
     * Measure one benchmark body.
     *
     * @param body The assembler sequence under measurement.
     * @return Per-body-execution averages.
     */
    Measurement measure(const isa::Kernel &body) const;

  private:
    /** measure() without the memo-cache. */
    Measurement measureUncached(const isa::Kernel &body) const;

    /** One Algorithm-2 run with @p n logical body copies; returns the
     *  counter delta between the two reads. */
    PerfCounters runOnce(const DecodedKernel &decoded, int n) const;

    const uarch::TimingDb &timing_;
    Pipeline pipeline_;
    const isa::InstrVariant *serializer_;
    const isa::InstrVariant *counter_reader_;
    /** Algorithm 2's fixed wrapper code: serializer / counter read /
     *  serializer, built once and decoded with every body. */
    isa::Kernel prologue_;
    isa::Kernel epilogue_;
    MeasurementCache *cache_ = nullptr;
};

} // namespace uops::sim

#endif // UOPS_SIM_HARNESS_H
