/**
 * @file
 * Parallel batch characterization across instruction variants and
 * microarchitectures.
 *
 * The paper's pipeline characterizes the entire instruction set on
 * every tested microarchitecture — thousands of independent
 * (variant, uarch) experiments. This engine sweeps them concurrently
 * on a work-stealing thread pool (support/thread_pool.h). Because the
 * simulator pipeline inside a Characterizer is stateful, every worker
 * owns one Characterizer per microarchitecture; results are written
 * into pre-sized slots indexed by task, so the aggregate report is
 * deterministic — byte-identical to a sequential sweep — regardless of
 * thread count or scheduling.
 *
 * All workers and uarches share one measurement memo-cache
 * (sim::MeasurementCache), so a kernel — the blocking kernels of
 * Algorithm 1 especially — is simulated once per distinct core and
 * µop tables rather than once per (variant, worker, uarch): the
 * refresh generations (WSM, BDW, KBL, CFL) mostly replay their
 * predecessor's runs. Cached measurements are bit-identical to
 * recomputation, so the cache changes wall-clock only.
 *
 * Per-variant failures (simulator aborts, codegen limitations) are
 * recorded in the report instead of aborting the batch, mirroring how
 * the uops.info pipeline skips unmeasurable instructions but still
 * publishes the rest.
 */

#ifndef UOPS_CORE_BATCH_H
#define UOPS_CORE_BATCH_H

#include <functional>
#include <string>
#include <vector>

#include "core/characterize.h"
#include "support/obs/metrics.h"

namespace uops::core {

/** Outcome of one (variant, uarch) characterization task. */
struct VariantOutcome
{
    const isa::InstrVariant *variant = nullptr;
    bool ok = false;
    std::string error;              ///< failure message when !ok
    InstrCharacterization result;   ///< valid when ok
};

/**
 * Streaming consumer of finished characterization tasks.
 *
 * runBatchSweep delivers every task outcome exactly once, in the
 * deterministic work-list order (uarch-major, then variant id) — the
 * same order UArchReport::outcomes and the XML export iterate — no
 * matter how many worker threads run or how they are scheduled. A
 * reorder buffer inside the engine holds completed tasks back until
 * all earlier ones have been delivered, so sinks observe a serial
 * stream and need no locking of their own; calls arrive on worker
 * threads, never concurrently.
 *
 * This is how results leave the sweep without materializing an XML
 * tree (or, with BatchOptions::keep_results = false, without even
 * retaining the full report): db::CatalogSweepIngestor appends
 * records straight into per-uarch shard databases.
 */
class SweepSink
{
  public:
    virtual ~SweepSink() = default;

    /** One finished task (success or failure), in work-list order. */
    virtual void onVariant(uarch::UArch arch,
                           const VariantOutcome &outcome) = 0;

    /** Called once after the last onVariant, before runBatchSweep
     *  returns (also on the sweep's exception path — pair it with
     *  idempotent cleanup). */
    virtual void finish() {}
};

/** Configuration of a batch sweep. */
struct BatchOptions
{
    /** Worker threads (0: one per hardware thread). */
    size_t num_threads = 0;

    /** Per-uarch characterizer configuration (filter, harness). */
    Characterizer::Options characterizer;

    /**
     * Progress hook, invoked from worker threads exactly once per
     * variant, after it finishes (successfully or not). Must be
     * thread-safe. An exception thrown from the hook is recorded as
     * that variant's failure; the hook is not re-invoked for it.
     */
    std::function<void(uarch::UArch, const isa::InstrVariant &, bool ok)>
        on_variant_done;

    /**
     * Streaming consumer of finished tasks (see SweepSink). Outcomes
     * are delivered in deterministic work-list order while the sweep
     * is still running; a sink exception aborts the sweep.
     */
    SweepSink *sink = nullptr;

    /**
     * When false, a task's InstrCharacterization is released right
     * after the sink consumed it, so the sweep never holds more than
     * the reorder window of results in memory; the returned report
     * then carries outcome status (ok / error) only — toSet() skips
     * the cleared slots, so it (and toXml()) yields no per-variant
     * results. Requires a sink.
     */
    bool keep_results = true;

    /**
     * Optional progress instrumentation. When set, the sweep
     * registers per-uarch series — `uops_sweep_variants_planned`,
     * `uops_sweep_variants_done_total`,
     * `uops_sweep_variants_failed_total` (all labeled uarch=...) —
     * plus a sweep-wide `uops_sweep_instructions_per_second` gauge,
     * and updates them from worker threads as tasks finish (one
     * relaxed increment each; the rate gauge is refreshed on every
     * completion). Registration is idempotent, so repeated sweeps
     * against one registry accumulate. Independently of this,
     * UOPS_TRACE=<file> records one Chrome trace-event span per
     * characterized variant.
     */
    obs::Registry *metrics = nullptr;
};

/** All outcomes for one microarchitecture, in variant-id order. */
struct UArchReport
{
    uarch::UArch arch = uarch::UArch::Nehalem;
    std::vector<VariantOutcome> outcomes;

    size_t numSucceeded() const;
    size_t numFailed() const;

    /** Successful outcomes repackaged for exportResultsXml(). */
    CharacterizationSet toSet() const;
};

/** Aggregate result of a sweep over several microarchitectures. */
struct CharacterizationReport
{
    std::vector<UArchReport> uarches;

    size_t numTasks() const;
    size_t numSucceeded() const;
    size_t numFailed() const;

    /**
     * Serializable uops.info-style XML: one <uopsInfo> element per
     * uarch (Section 6.4 format via exportResultsXml), plus one
     * <error> element per failed variant.
     */
    std::unique_ptr<XmlNode> toXml() const;

    /** toXml() serialized, including the XML declaration. */
    std::string toXmlString() const;
};

/**
 * Characterize every measurable variant of @p db (subject to the
 * options' filter) on every uarch in @p arches, in parallel.
 */
CharacterizationReport runBatchSweep(const isa::InstrDb &db,
                                     const std::vector<uarch::UArch> &arches,
                                     const BatchOptions &options = {});

} // namespace uops::core

#endif // UOPS_CORE_BATCH_H
