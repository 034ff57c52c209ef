#include "predict_engine.h"

namespace uops::server {

PredictEngine::PredictEngine(const isa::InstrDb &instrs,
                             Options options)
    : instrs_(instrs), options_(options),
      pool_(std::max<size_t>(1, options.num_threads))
{
    worker_states_.resize(pool_.numWorkers());
}

PredictEngine::~PredictEngine() = default;

sim::Measurement
PredictEngine::runOnWorker(size_t worker, uarch::UArch arch,
                           const isa::Kernel &body)
{
    auto &states = worker_states_[worker];
    auto it = states.find(arch);
    if (it == states.end()) {
        auto predictor = std::make_unique<sim::BlockPredictor>(
            instrs_, arch, options_.cycle_budget);
        predictor->setCache(&sim_cache_);
        it = states.emplace(arch, std::move(predictor)).first;
    }
    sim::Measurement m = it->second->predict(body);
    simulations_.fetch_add(1, std::memory_order_relaxed);
    return m;
}

sim::Measurement
PredictEngine::simulate(uarch::UArch arch, const isa::Kernel &body)
{
    std::string key = sim::BlockPredictor::fingerprint(arch, body);

    std::shared_ptr<Job> owned;    // set when we started this job
    std::shared_future<sim::Measurement> future;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        auto it = jobs_.find(key);
        if (it != jobs_.end()) {
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            future = it->second->future;
        } else {
            if (inflight_ >= options_.max_inflight) {
                rejected_.fetch_add(1, std::memory_order_relaxed);
                throw PredictOverloaded(
                    "prediction queue is full (" +
                        std::to_string(options_.max_inflight) +
                        " kernels in flight); retry shortly",
                    options_.max_inflight);
            }
            owned = std::make_shared<Job>();
            owned->future = owned->promise.get_future().share();
            jobs_.emplace(key, owned);
            ++inflight_;
            future = owned->future;
        }
    }

    if (owned) {
        pool_.submit([this, owned, key, arch, body](size_t worker) {
            // Everything — including validation FatalErrors and
            // budget overruns — flows to the waiters through the
            // promise; the pool's own error channel stays clean.
            try {
                owned->promise.set_value(
                    runOnWorker(worker, arch, body));
            } catch (...) {
                owned->promise.set_exception(
                    std::current_exception());
            }
            // Deregister only after the result is published: a
            // submission that finds the job still listed blocks on a
            // future that is already (or imminently) ready.
            std::lock_guard<std::mutex> lock(jobs_mutex_);
            jobs_.erase(key);
            --inflight_;
        });
    }

    return future.get();   // rethrows the simulation's exception
}

PredictEngine::Stats
PredictEngine::stats() const
{
    Stats out;
    out.simulations = simulations_.load(std::memory_order_relaxed);
    out.coalesced = coalesced_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.sim_cache_hits = sim_cache_.hits();
    out.sim_cache_misses = sim_cache_.misses();
    out.sim_cache_entries = sim_cache_.size();
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        out.inflight = inflight_;
    }
    out.workers = pool_.numWorkers();
    return out;
}

} // namespace uops::server
