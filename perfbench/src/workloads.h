/**
 * @file
 * The two workloads. Each runs once per process: the untraced run
 * reports the end-to-end metrics, the traced run (--trace 1) the
 * per-layer ones.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "core/batch.h"
#include "db/catalog.h"

namespace perfbench {

/** What a workload hands back to main(). */
struct Outcome
{
    Result result;
    std::string layout;  ///< worker / connection counts, for the stamp
};

Outcome runSweep(const Args &args, Tracer &tracer);
Outcome runServeHot(const Args &args, Tracer &tracer);

/** Per-layer values by name; absent names print as 0 (the workload
 *  does not exercise that layer). */
using LayerValues = std::map<std::string, double>;

/** Set every per-layer metric, in the fixed order, on @p result. */
void setLayerMetrics(Result &result, const LayerValues &values);

/** The end-to-end metrics every workload prints. */
struct EndToEnd
{
    double setup_s = 0;
    double throughput_per_s = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double port_exact_frac = 0;
};

/** Set every end-to-end metric on @p result (ok_frac and peak RSS
 *  are taken from the result and the process). */
void setEndToEnd(Result &result, const EndToEnd &values);

// ---- the sweep pipeline, shared with the serve fixture ---------------

/** Seeded slice: the variants with (id + seed) % @p modulus == 0. */
std::function<bool(const uops::isa::InstrVariant &)>
sliceFilter(uint64_t seed, int modulus);

/** Everything one sweep → ingest → publish pass measured. */
struct SweepPass
{
    uops::core::CharacterizationReport report;
    double setup_s = 0;       ///< sweep start to first variant done
    double throughput = 0;    ///< variants/s after set-up, to commit
    size_t after_tasks = 0;   ///< variants finished after set-up ...
    double after_s = 0;       ///< ... in this many seconds
    std::vector<double> task_ms;  ///< per-worker completion gaps
    double batch_tail_ms = 0;
    size_t succeeded = 0;     ///< set by checkSweepPass
    size_t port_exact = 0;    ///< set by checkSweepPass
    uint64_t publish_bytes = 0;
    std::shared_ptr<const uops::db::DatabaseCatalog> catalog;
};

/**
 * Run the paper's pipeline once: runBatchSweep over every uarch with
 * a CatalogSweepIngestor behind a forwarding sink, build the catalog
 * and saveCatalogDir it under @p dir. Spans go to @p tracer under
 * @p parent.
 */
SweepPass runSweepPass(
    std::function<bool(const uops::isa::InstrVariant &)> filter,
    size_t workers, const std::string &dir, Tracer &tracer,
    uint32_t parent);

/**
 * Check a pass's output into @p checks: every task succeeded, its port
 * usage against the TimingDb ground truth (counted in
 * pass.port_exact), and @p dir reopens hash-verified with one record
 * per succeeded variant and the same content hash.
 */
void checkSweepPass(SweepPass &pass, const std::string &dir,
                    Result &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
