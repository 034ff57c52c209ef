/**
 * @file
 * Concurrency gateway between HTTP workers and the kernel simulator.
 *
 * /predict is the one endpoint whose cost is set by the *client*: a
 * kernel simulation runs for micro- to milliseconds of CPU, so
 * running it inline on HTTP threads would let a burst of expensive
 * kernels occupy every connection slot. The engine decouples the two
 * pools: HTTP workers submit kernels here and block only on a
 * future, while a small dedicated ThreadPool (support/thread_pool.h)
 * executes the simulations.
 *
 * Three production concerns live here:
 *
 *  - batching/coalescing: requests are single-flighted by exact
 *    kernel fingerprint (sim::BlockPredictor::fingerprint) —
 *    concurrent identical submissions share one simulation and all
 *    wake on its result (a thundering herd of one hot kernel costs
 *    one simulator run);
 *  - admission: at most max_inflight *distinct* kernels may be
 *    queued or running; beyond that submissions fail fast with
 *    PredictOverloaded (the service's 429) instead of growing an
 *    unbounded queue;
 *  - isolation: simulator state (BlockPredictor: timing synthesis +
 *    pipeline scratch) is per (worker, uarch), created lazily and
 *    touched only by its owning worker — the pool's worker index is
 *    the whole synchronization story. Completed measurements are
 *    memoized in one MeasurementCache shared by every worker and
 *    uarch, so repeat kernels after the single-flight window closes
 *    still skip the simulator, and a kernel measured on SKL is not
 *    simulated again for KBL or CFL (the cache key names the core
 *    and µop tables, not the uarch). Timing is catalog-independent,
 *    so the cache survives generation hot-swaps.
 *
 * The cycle budget is the engine's only simulation policy, and it
 * only decides whether a kernel's Algorithm-2 run completes. It
 * bounds the body copies' cycles: the harness does not simulate the
 * CPUID/RDTSC wrapper (sim/harness.h).
 *
 * Exceptions from a simulation (validation FatalError, budget
 * overrun) propagate through the shared future to every coalesced
 * waiter; they never reach the pool's own error channel.
 */

#ifndef UOPS_SERVER_PREDICT_ENGINE_H
#define UOPS_SERVER_PREDICT_ENGINE_H

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/kernel.h"
#include "sim/block_predict.h"
#include "sim/measurement_cache.h"
#include "support/status.h"
#include "support/thread_pool.h"
#include "uarch/uarch.h"

namespace uops::server {

/** Thrown when the in-flight bound is hit (the service's 429). */
class PredictOverloaded : public FatalError
{
  public:
    PredictOverloaded(const std::string &msg, size_t max_inflight)
        : FatalError(msg), max_inflight_(max_inflight)
    {
    }

    size_t maxInflight() const { return max_inflight_; }

  private:
    size_t max_inflight_;
};

class PredictEngine
{
  public:
    struct Options
    {
        /** Simulation workers (kept small on purpose: simulations
         *  are CPU-bound; HTTP concurrency lives elsewhere). */
        size_t num_threads = 2;

        /** Distinct kernels queued or running before submissions
         *  are rejected with PredictOverloaded. */
        size_t max_inflight = 64;

        /** Simulated-cycle budget of each run's body copies
         *  (0 = unbounded); past it a kernel fails with
         *  CycleBudgetExceeded. */
        int64_t cycle_budget = sim::kDefaultCycleBudget;
    };

    /** Point-in-time engine counters. */
    struct Stats
    {
        uint64_t simulations = 0;   ///< simulator runs completed
        uint64_t coalesced = 0;     ///< submissions served by joining
                                    ///< an in-flight simulation
        uint64_t rejected = 0;      ///< PredictOverloaded throws
        uint64_t sim_cache_hits = 0;
        uint64_t sim_cache_misses = 0;
        size_t sim_cache_entries = 0;
        size_t inflight = 0;
        size_t workers = 0;
    };

    PredictEngine(const isa::InstrDb &instrs, Options options);
    ~PredictEngine();

    PredictEngine(const PredictEngine &) = delete;
    PredictEngine &operator=(const PredictEngine &) = delete;

    /**
     * Simulate @p body on @p arch, waiting for the result. Coalesces
     * with any in-flight identical submission.
     *
     * @throws PredictOverloaded     at the admission bound;
     * @throws sim::CycleBudgetExceeded past the cycle budget;
     * @throws FatalError            for kernels invalid on @p arch.
     */
    sim::Measurement simulate(uarch::UArch arch,
                              const isa::Kernel &body);

    Stats stats() const;

  private:
    /** One single-flighted simulation; waiters share the future. */
    struct Job
    {
        std::promise<sim::Measurement> promise;
        std::shared_future<sim::Measurement> future;
    };

    sim::Measurement runOnWorker(size_t worker, uarch::UArch arch,
                                 const isa::Kernel &body);

    const isa::InstrDb &instrs_;
    Options options_;

    /** Shared memo of every worker and uarch (lock-sharded
     *  internally). */
    sim::MeasurementCache sim_cache_;

    /** Lazily-built simulators, indexed [worker][uarch]; each map is
     *  owned by exactly one pool worker. */
    std::vector<
        std::map<uarch::UArch, std::unique_ptr<sim::BlockPredictor>>>
        worker_states_;

    mutable std::mutex jobs_mutex_;
    std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
    size_t inflight_ = 0;

    std::atomic<uint64_t> simulations_{0};
    std::atomic<uint64_t> coalesced_{0};
    std::atomic<uint64_t> rejected_{0};

    /** Declared last: destruction joins the workers while every
     *  member they touch is still alive. */
    ThreadPool pool_;
};

} // namespace uops::server

#endif // UOPS_SERVER_PREDICT_ENGINE_H
