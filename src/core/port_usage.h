/**
 * @file
 * Port-usage inference (Algorithm 1, Section 5.1.2).
 *
 * For each port combination pc (sorted by size), the analyzer
 * concatenates blockRep copies of the blocking instruction for pc with
 * the instruction under analysis, measures the number of µops executed
 * on the ports of pc, subtracts the blocking µops and the µops already
 * attributed to strict subsets of pc, and attributes the remainder to
 * pc: those µops can execute on all ports of pc but on no others.
 *
 * Both documented optimizations are implemented: the combination loop
 * is restricted to combinations compatible with the ports observed
 * when the instruction runs in isolation, and it exits early once all
 * µops of the instruction are attributed.
 */

#ifndef UOPS_CORE_PORT_USAGE_H
#define UOPS_CORE_PORT_USAGE_H

#include "core/blocking.h"
#include "uarch/timing.h"

namespace uops::core {

/** Multiplier on max latency for the blocking-copy count (the paper
 *  uses the maximum number of ports, 8). */
constexpr int kBlockRepFactor = 8;

/** Cap on blocking copies (keeps divider instructions sane). */
constexpr int kBlockRepCap = 96;

/** Algorithm 1 ablation switches (bench_alg1_ablation). */
struct PortUsageOptions
{
    /** Disable the subset-subtraction step (ablation only). */
    bool no_subset_subtraction = false;

    /** Disable the size-sorting of combinations (ablation only). */
    bool no_sorting = false;

    /** Disable the isolation-ports restriction (ablation only). */
    bool no_isolation_filter = false;

    /** Disable early exit (ablation only). */
    bool no_early_exit = false;
};

/** Result of Algorithm 1 for one instruction. */
struct PortUsageResult
{
    uarch::PortUsage usage;
    IsolationInfo isolation;
    int block_rep = 0;
    int measurements = 0; ///< number of blocking measurements taken
};

/**
 * Runs Algorithm 1.
 */
class PortUsageAnalyzer
{
  public:
    PortUsageAnalyzer(const sim::MeasurementHarness &harness,
                      const BlockingSet &sse_set,
                      const BlockingSet &avx_set,
                      PortUsageOptions options = {});

    /**
     * Infer the port usage of @p variant.
     *
     * @param max_latency Maximum operand-pair latency (from the
     *        latency analysis; used for blockRep).
     */
    PortUsageResult analyze(const isa::InstrVariant &variant,
                            int max_latency) const;

    /**
     * Fog-style naive inference (Section 5.1): run in isolation and
     * round the per-port averages. Used as the prior-work baseline in
     * the ablation benchmarks.
     */
    uarch::PortUsage analyzeNaive(const isa::InstrVariant &variant) const;

  private:
    const sim::MeasurementHarness &harness_;
    const BlockingSet &sse_set_;
    const BlockingSet &avx_set_;
    PortUsageOptions options_;
    BlockingFinder finder_;
};

} // namespace uops::core

#endif // UOPS_CORE_PORT_USAGE_H
