/**
 * @file
 * Cycle-level out-of-order execution-engine simulator.
 *
 * This is the project's substitute for the paper's physical Intel Core
 * processors (see DESIGN.md): it executes benchmark kernels against the
 * ground-truth µop timing tables and exposes the performance counters
 * the characterization algorithms consume.
 *
 * Modeled (per Figure 1 and Section 3.1 of the paper):
 *  - in-order issue of µops into the scheduler (4-wide front end);
 *  - register renaming over architectural units, eliminating false
 *    dependencies; partial-register writes merge with the old value;
 *  - the reorder buffer executing special µops directly: NOPs, zero
 *    idioms (with identical registers), and register-to-register moves
 *    (move elimination — deliberately succeeding only ~1/3 of the time
 *    in dependent chains, as the paper observed, so that latency
 *    measurements must use MOVSX instead of MOV);
 *  - per-µop port binding by least-load heuristic at issue time and
 *    oldest-first dispatch of at most one µop per port per cycle;
 *  - per-(µop, destination) latencies, inter-domain bypass delays, and
 *    the not-fully-pipelined divider with value-dependent timing;
 *  - loads, store-address/store-data µops, memory dependencies through
 *    store-to-load forwarding;
 *  - SSE/AVX transition behaviour: while the upper YMM state is dirty,
 *    non-VEX vector writes acquire a merge dependency on their
 *    destination (why the tool keeps separate SSE/AVX blocking sets);
 *  - serializing instructions (pipeline drain) and in-order retirement
 *    with counter snapshots at marker instructions (Algorithm 2).
 *
 * Performance: run() executes either a materialized kernel or a
 * DecodedKernel template with logical body unrolling (the measurement
 * hot path — see sim/decoded.h). Renaming follows the template's
 * per-µop rename plan and writes straight into the reorder buffer.
 * Per-run working state (reorder buffer, value tables, waiter nodes,
 * per-port candidate lists) lives in a scratch arena owned by the
 * Pipeline and reused across runs, so a warmed Pipeline's run
 * allocates nothing per µop or per copy. Results are unaffected: every
 * run starts from a fully reset power-on state. Scheduling is event
 * driven: a µop waits on the values it lacks, the producer's dispatch
 * wakes it, and once every source is produced it joins its port's
 * candidates in ROB order, from which each port dispatches the oldest
 * ready one. When no µop can dispatch, issue, or retire in a cycle,
 * the simulated clock skips ahead to the next cycle at which a
 * candidate becomes ready, the divider frees up for one, or the
 * oldest µop completes — cycle-exact, since no architectural state
 * can change in the skipped span. With body copies, the run looks for
 * a copy boundary whose canonical state repeats an earlier one's;
 * from there the remaining copies are periodic, so whole periods are
 * cut from the stream and their counter and cycle deltas added in
 * closed form (exact fast-forward, DESIGN.md). The results, cycles
 * and budgets are those of the full run; RunResult::simulated_cycles
 * tells how many cycles were stepped. A run can also count its first
 * body copies on their own (RunResult::prefix), which gives Algorithm
 * 2's n = 10 counters from the n = 110 run. A materialized kernel run
 * through run(const Kernel&) is one logical copy and never
 * fast-forwards, so it is the reference for the n-copy runs.
 *
 * Thread-safety: because of the reused scratch arena, a Pipeline
 * instance must not execute concurrent run() calls. The batch engine
 * keeps one Pipeline (inside a Characterizer) per worker thread.
 */

#ifndef UOPS_SIM_PIPELINE_H
#define UOPS_SIM_PIPELINE_H

#include <memory>
#include <vector>

#include "isa/kernel.h"
#include "sim/counters.h"
#include "sim/decoded.h"
#include "support/status.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

class PipelineScratch;

/**
 * Thrown when a run exceeds SimOptions::cycle_budget. Unlike the
 * max_cycles backstop (a panic: a kernel the library itself built
 * should never run away), blowing the budget is a *user* condition —
 * the submitted kernel was legal but too expensive to simulate under
 * the caller's admission policy — so it derives from FatalError and
 * carries the budget for a structured rejection.
 */
class CycleBudgetExceeded : public FatalError
{
  public:
    CycleBudgetExceeded(const std::string &msg, int64_t budget)
        : FatalError(msg), budget_(budget)
    {
    }

    int64_t budget() const { return budget_; }

  private:
    int64_t budget_;
};

/** Tuning/feature knobs (defaults follow the uarch descriptor). */
struct SimOptions
{
    /** Hard cycle cap: aborts runaway simulations. */
    int64_t max_cycles = 50'000'000;

    /** Admission budget for externally-supplied kernels: a run whose
     *  logical clock (fast-forwarded cycles included) passes this many
     *  cycles throws CycleBudgetExceeded (0 disables the budget).
     *  Purely an abort threshold — results of runs within budget are
     *  unaffected. */
    int64_t cycle_budget = 0;

    /** Skip idle stretches of the simulated clock (cycle-exact; off
     *  only for differential testing). */
    bool skip_idle = true;

    bool operator==(const SimOptions &other) const = default;
};

/** Result of simulating one kernel. */
struct RunResult
{
    PerfCounters final;                  ///< Counters at end of run.
    std::vector<PerfCounters> snapshots; ///< At marker retirements.
    int64_t cycles = 0;                  ///< Total cycles to drain.
    /** Cycles actually stepped: `cycles` less those fast-forwarded. */
    int64_t simulated_cycles = 0;
    /**
     * The counters of the prologue and the first prefix_copies body
     * copies on their own: port_uops, uops_issued and uops_eliminated
     * count the µops of those instructions, instrs_retired counts
     * those instructions, and cycles is the clock at which the last of
     * them retired (0 if there is none). Oldest-first resources keep
     * younger µops from moving older ones, so this equals the final
     * counters of a run with prefix_copies copies and no epilogue,
     * unless the body uses the divider or its last instruction fuses
     * with the next copy's first (DESIGN.md, "Why one run suffices").
     */
    PerfCounters prefix;
};

/**
 * The simulated core. Architecturally stateless between run() calls —
 * each run starts from power-on register state — but the working
 * memory is reused (see the file comment), so concurrent run() calls
 * on one instance are not allowed.
 */
class Pipeline
{
  public:
    explicit Pipeline(const uarch::TimingDb &timing,
                      SimOptions options = {});
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    const uarch::UArchInfo &info() const { return info_; }
    const SimOptions &options() const { return options_; }

    /**
     * Execute @p kernel to completion.
     *
     * @param kernel  Straight-line instance sequence.
     * @param markers Kernel indices at whose retirement the counters
     *                are snapshotted (Algorithm 2's counter reads).
     */
    RunResult run(const isa::Kernel &kernel,
                  const std::vector<size_t> &markers = {}) const;

    /**
     * Execute a decoded template with @p body_reps logical body
     * copies: prologue · body × body_reps · epilogue. Produces
     * bit-identical results to run() on the equivalent materialized
     * kernel, without building it and, once the copies repeat,
     * without stepping the periodic tail.
     *
     * @param markers Virtual-stream indices for counter snapshots.
     * @param prefix_copies Body copies whose counters RunResult::prefix
     *                reports on their own (at most body_reps). The
     *                period search starts after them, so no
     *                fast-forward cut removes one.
     */
    RunResult run(const DecodedKernel &decoded, int body_reps,
                  const std::vector<size_t> &markers = {},
                  int prefix_copies = 0) const;

  private:
    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    SimOptions options_;
    /** Reusable per-run working state (see file comment). */
    mutable std::unique_ptr<PipelineScratch> scratch_;
};

} // namespace uops::sim

#endif // UOPS_SIM_PIPELINE_H
