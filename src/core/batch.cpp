#include "core/batch.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "sim/measurement_cache.h"
#include "support/obs/trace.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace uops::core {

size_t
UArchReport::numSucceeded() const
{
    size_t n = 0;
    for (const VariantOutcome &o : outcomes)
        if (o.ok)
            ++n;
    return n;
}

size_t
UArchReport::numFailed() const
{
    return outcomes.size() - numSucceeded();
}

CharacterizationSet
UArchReport::toSet() const
{
    CharacterizationSet set;
    set.arch = arch;
    // A sweep with keep_results = false clears each result after the
    // sink consumed it (variant == nullptr) while ok stays true;
    // those slots carry no data to repackage.
    for (const VariantOutcome &o : outcomes)
        if (o.ok && o.result.variant != nullptr)
            set.instrs.push_back(o.result);
    return set;
}

size_t
CharacterizationReport::numTasks() const
{
    size_t n = 0;
    for (const UArchReport &r : uarches)
        n += r.outcomes.size();
    return n;
}

size_t
CharacterizationReport::numSucceeded() const
{
    size_t n = 0;
    for (const UArchReport &r : uarches)
        n += r.numSucceeded();
    return n;
}

size_t
CharacterizationReport::numFailed() const
{
    return numTasks() - numSucceeded();
}

std::unique_ptr<XmlNode>
CharacterizationReport::toXml() const
{
    auto root = std::make_unique<XmlNode>("uopsBatch");
    root->attr("uarches", static_cast<long>(uarches.size()));
    root->attr("tasks", static_cast<long>(numTasks()));
    root->attr("succeeded", static_cast<long>(numSucceeded()));
    root->attr("failed", static_cast<long>(numFailed()));

    for (const UArchReport &report : uarches) {
        // The per-uarch payload is exactly the Section 6.4 export.
        XmlNode &uarch_node =
            root->addChild(exportResultsXml(report.toSet()));
        for (const VariantOutcome &o : report.outcomes) {
            if (o.ok)
                continue;
            XmlNode &err = uarch_node.addChild("error");
            err.attr("name", o.variant->name());
            err.setText(o.error);
        }
    }
    return root;
}

std::string
CharacterizationReport::toXmlString() const
{
    return toXml()->toString();
}

namespace {

/** The (uarch, variant) work list, in deterministic order. */
struct TaskRef
{
    size_t arch_index;
    size_t slot;
    const isa::InstrVariant *variant;
};

/** Registry handles for one sweep's progress series (per uarch),
 *  resolved up front so workers record with relaxed increments. */
struct SweepInstruments
{
    std::vector<obs::Counter *> done;     ///< by arch index
    std::vector<obs::Counter *> failed;   ///< by arch index
    obs::Gauge *instructions_per_second = nullptr;
};

SweepInstruments
registerSweepInstruments(obs::Registry &registry,
                         const std::vector<uarch::UArch> &arches,
                         const CharacterizationReport &report)
{
    SweepInstruments out;
    for (size_t a = 0; a < arches.size(); ++a) {
        obs::LabelSet labels{
            {"uarch", uarch::uarchShortName(arches[a])}};
        registry
            .gauge("uops_sweep_variants_planned",
                   "Variants enqueued for the current sweep, by "
                   "uarch",
                   labels)
            .set(static_cast<double>(
                report.uarches[a].outcomes.size()));
        out.done.push_back(&registry.counter(
            "uops_sweep_variants_done_total",
            "Variants characterized (success or failure), by uarch",
            labels));
        out.failed.push_back(&registry.counter(
            "uops_sweep_variants_failed_total",
            "Variants that failed characterization, by uarch",
            labels));
    }
    out.instructions_per_second = &registry.gauge(
        "uops_sweep_instructions_per_second",
        "Instruction variants characterized per second, current "
        "sweep");
    return out;
}

} // namespace

CharacterizationReport
runBatchSweep(const isa::InstrDb &db,
              const std::vector<uarch::UArch> &arches,
              const BatchOptions &options)
{
    fatalIf(arches.empty(), "runBatchSweep: no microarchitectures given");
    fatalIf(!options.keep_results && options.sink == nullptr,
            "runBatchSweep: keep_results=false requires a sink");

    ThreadPool pool(options.num_threads);

    // One Characterizer per (worker, uarch): the simulator pipeline and
    // the lazily built blocking sets inside it are stateful, so they
    // must never be shared between workers.
    std::vector<std::vector<std::unique_ptr<Characterizer>>> workers(
        pool.numWorkers());
    for (auto &per_arch : workers) {
        per_arch.reserve(arches.size());
        for (uarch::UArch arch : arches)
            per_arch.push_back(std::make_unique<Characterizer>(
                db, arch, options.characterizer));
    }

    // One measurement memo-cache for every worker and uarch: kernels
    // repeat across variants, workers and generations that share a
    // core and µop tables, and cached results are bit-identical to
    // recomputation, so sharing changes wall-clock only, never the
    // report.
    sim::MeasurementCache memo_cache;
    for (auto &per_arch : workers)
        for (auto &tool : per_arch)
            tool->setMeasurementCache(&memo_cache);

    // Instrument calibration and blocking-set discovery are a
    // deterministic function of (db, uarch) and dominate per-worker
    // cost: run them once per uarch (in parallel), then share the
    // result with every worker's instance.
    // A uarch whose setup fails is remembered so that its variant
    // tasks fail fast with the setup error instead of re-running the
    // expensive discovery once per variant; the sweep itself never
    // aborts.
    std::vector<std::string> setup_errors(arches.size());
    pool.parallelFor(arches.size(), [&](size_t a, size_t worker) {
        try {
            workers[worker][a]->prepare();
            for (auto &per_arch : workers)
                per_arch[a]->primeFrom(*workers[worker][a]);
        } catch (const std::exception &e) {
            setup_errors[a] = std::string("setup failed: ") + e.what();
        } catch (...) {
            setup_errors[a] = "setup failed: unknown error";
        }
    });

    // Enumerate the work list up front so every task writes a fixed
    // slot: the report layout does not depend on scheduling.
    CharacterizationReport report;
    report.uarches.resize(arches.size());
    std::vector<TaskRef> tasks;
    for (size_t a = 0; a < arches.size(); ++a) {
        UArchReport &ureport = report.uarches[a];
        ureport.arch = arches[a];
        const Characterizer &probe = *workers[0][a];
        for (const isa::InstrVariant *variant : db.all()) {
            if (!probe.isMeasurable(*variant))
                continue;
            if (options.characterizer.filter &&
                !options.characterizer.filter(*variant))
                continue;
            tasks.push_back({a, ureport.outcomes.size(), variant});
            VariantOutcome &slot = ureport.outcomes.emplace_back();
            slot.variant = variant;
        }
    }

    // Progress instrumentation: resolved once, recorded from worker
    // threads with relaxed increments. The instructions/sec gauge is
    // total completions over sweep wall time so far — robust to
    // bursty task durations and cheap to refresh per completion.
    SweepInstruments instruments;
    if (options.metrics != nullptr)
        instruments =
            registerSweepInstruments(*options.metrics, arches, report);
    std::atomic<uint64_t> completed{0};
    const auto sweep_start = std::chrono::steady_clock::now();
    obs::ChromeTracer *tracer = obs::ChromeTracer::fromEnv();

    // Streaming delivery: tasks complete in any order, but the sink
    // must observe the deterministic work-list order (the same order
    // the report and the XML export iterate). A completed task is
    // held in its report slot until every earlier task has been
    // delivered; the worker that completes the delivery frontier
    // flushes the contiguous prefix.
    std::mutex sink_mutex;
    std::vector<uint8_t> task_done(tasks.size(), 0);
    size_t next_delivery = 0;
    bool sink_failed = false;
    auto deliver_ready = [&]() {   // caller holds sink_mutex
        while (!sink_failed && next_delivery < tasks.size() &&
               task_done[next_delivery]) {
            const TaskRef &task = tasks[next_delivery];
            VariantOutcome &slot =
                report.uarches[task.arch_index].outcomes[task.slot];
            try {
                options.sink->onVariant(arches[task.arch_index], slot);
            } catch (...) {
                // Deliver-exactly-once even on the abort path: a
                // throwing sink must not be re-offered this outcome
                // by the next worker's flush.
                sink_failed = true;
                throw;
            }
            if (!options.keep_results)
                slot.result = InstrCharacterization{};
            ++next_delivery;
        }
    };

    auto run_task = [&](size_t i, size_t worker) {
        const TaskRef &task = tasks[i];
        VariantOutcome &slot =
            report.uarches[task.arch_index].outcomes[task.slot];
        uarch::UArch arch = arches[task.arch_index];
        auto describe = [](std::exception_ptr error) -> std::string {
            try {
                std::rethrow_exception(error);
            } catch (const std::exception &e) {
                return e.what();
            } catch (...) {
                return "unknown error";
            }
        };
        if (!setup_errors[task.arch_index].empty()) {
            slot.ok = false;
            slot.error = setup_errors[task.arch_index];
        } else {
            uint64_t span_start =
                tracer != nullptr ? obs::traceNowUs() : 0;
            try {
                Characterizer &tool = *workers[worker][task.arch_index];
                slot.result = tool.characterize(*task.variant);
                slot.ok = true;
            } catch (...) {
                slot.ok = false;
                slot.result = InstrCharacterization{};
                slot.error = describe(std::current_exception());
            }
            if (tracer != nullptr)
                tracer->complete(task.variant->name(),
                                 uarch::uarchShortName(arch),
                                 span_start,
                                 obs::traceNowUs() - span_start);
        }
        // Notify exactly once per task. A hook exception downgrades a
        // success to a recorded failure but is never re-notified.
        if (options.on_variant_done) {
            try {
                options.on_variant_done(arch, *task.variant, slot.ok);
            } catch (...) {
                if (slot.ok) {
                    slot.ok = false;
                    slot.result = InstrCharacterization{};
                    slot.error = describe(std::current_exception());
                }
            }
        }
        if (options.metrics != nullptr) {
            instruments.done[task.arch_index]->inc();
            if (!slot.ok)
                instruments.failed[task.arch_index]->inc();
            uint64_t total =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sweep_start)
                    .count();
            if (seconds > 0)
                instruments.instructions_per_second->set(
                    static_cast<double>(total) / seconds);
        }
        if (options.sink) {
            std::lock_guard<std::mutex> lock(sink_mutex);
            task_done[i] = 1;
            deliver_ready();
        }
    };

    if (options.sink == nullptr) {
        pool.parallelFor(tasks.size(), run_task);
        return report;
    }
    try {
        pool.parallelFor(tasks.size(), run_task);
    } catch (...) {
        // Give the sink its finish() even when the sweep aborts, so
        // RAII-style sinks can release what they already consumed.
        try {
            options.sink->finish();
        } catch (...) {
        }
        throw;
    }
    options.sink->finish();
    return report;
}

} // namespace uops::core
