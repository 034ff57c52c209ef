/**
 * @file
 * Pipeline entry point for externally-supplied basic blocks.
 *
 * The characterization stack always simulates kernels it built
 * itself; the prediction service (server/service.h) simulates kernels
 * a *user* submitted, which changes the contract in three ways this
 * wrapper enforces:
 *
 *  - validation: every instruction must exist on the target
 *    generation (extension gating per Table 1) — a kernel that
 *    assembles against the full instruction DB can still be invalid
 *    for a Nehalem-class core. Violations are FatalErrors (the
 *    caller's 400), never simulator panics.
 *  - bounded work: the underlying pipeline runs with a cycle budget
 *    (SimOptions::cycle_budget), so a legal-but-expensive kernel
 *    aborts with CycleBudgetExceeded instead of monopolizing a
 *    worker for up to max_cycles.
 *  - self-contained timing: ground-truth timing synthesis
 *    (uarch::TimingDb) caches lazily without locks, so each
 *    BlockPredictor owns a private TimingDb rather than sharing one.
 *    An instance is therefore single-threaded like the Pipeline it
 *    wraps — keep one per worker thread — but a MeasurementCache may
 *    be shared across all instances of every uarch (timing is a pure
 *    function of the generation, independent of catalog contents or
 *    serving epoch, and the cache key names the core and µop tables
 *    a run reads).
 *
 * The measurement itself is exactly Algorithm 2 on the decoded
 * template (sim/harness.h): per-iteration steady-state cycles and
 * port pressure with the harness wrapper cost cancelled. Results are
 * bit-identical to driving sim::Pipeline through a MeasurementHarness
 * directly: the cycle budget only decides whether a run completes.
 */

#ifndef UOPS_SIM_BLOCK_PREDICT_H
#define UOPS_SIM_BLOCK_PREDICT_H

#include <string>

#include "isa/kernel.h"
#include "sim/harness.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

class MeasurementCache;

/** Default per-run simulated-cycle budget. It comfortably covers
 *  every latency-bound kernel a bounded instruction count can
 *  produce, while capping a worker's worst-case time on one
 *  request. */
constexpr int64_t kDefaultCycleBudget = 20'000'000;

/**
 * Simulates user-submitted basic blocks on one microarchitecture.
 * Not thread-safe; see the file comment.
 */
class BlockPredictor
{
  public:
    /** @param cycle_budget Per-run simulated-cycle budget
     *                      (0 = unbounded). */
    BlockPredictor(const isa::InstrDb &instrs, uarch::UArch arch,
                   int64_t cycle_budget = kDefaultCycleBudget);

    uarch::UArch arch() const { return timing_.arch(); }
    const uarch::UArchInfo &info() const { return harness_.info(); }

    /** Share a measurement memo (nullptr detaches); predictors of
     *  any uarch may share one. */
    void setCache(MeasurementCache *cache) { harness_.setCache(cache); }

    /**
     * Validate @p body for this generation and measure it.
     *
     * @throws FatalError on an instruction the generation lacks or an
     *         empty body; CycleBudgetExceeded past the budget.
     * @return Per-iteration steady-state averages.
     */
    Measurement predict(const isa::Kernel &body) const;

    /**
     * Canonical memo key for (arch, body): the uarch short name and a
     * NUL, then the exact MeasurementCache fingerprint.
     * Two requests get the same key iff they decode to byte-identical
     * simulations, so memoized responses are bit-identical to cold
     * ones by construction.
     */
    static std::string fingerprint(uarch::UArch arch,
                                   const isa::Kernel &body);

  private:
    uarch::TimingDb timing_;
    MeasurementHarness harness_;
};

} // namespace uops::sim

#endif // UOPS_SIM_BLOCK_PREDICT_H
