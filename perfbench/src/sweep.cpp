/**
 * @file
 * The `sweep` workload: the paper's pipeline. A pass characterizes a
 * quarter of the ISA on all nine uarches (runBatchSweep feeding a
 * CatalogSweepIngestor), builds the catalog, publishes it with
 * saveCatalogDir and reopens it hash-verified. A round is four passes,
 * one per quarter starting at the seed's, i.e. the whole ISA; rounds
 * repeat while the run's time lasts.
 */

#include <algorithm>
#include <thread>
#include <unistd.h>

#include "core/batch.h"
#include "core/codegen.h"
#include "core/latency.h"
#include "core/port_usage.h"
#include "core/throughput.h"
#include "sim/measurement_cache.h"
#include "workloads.h"

namespace perfbench {

using namespace uops;

namespace {

/** Forwards every outcome to the catalog ingestor, timing each call
 *  as a `db.ingest` span. */
class ForwardingSink final : public core::SweepSink
{
  public:
    ForwardingSink(db::CatalogSweepIngestor &ingestor, Tracer &tracer)
        : ingestor_(ingestor), tracer_(tracer)
    {
    }

    void setParent(uint32_t parent) { parent_ = parent; }

    void
    onVariant(uarch::UArch arch,
              const core::VariantOutcome &outcome) override
    {
        Tracer::Scope span = tracer_.span("db.ingest", parent_);
        ingestor_.onVariant(arch, outcome);
    }

    void finish() override { ingestor_.finish(); }

  private:
    db::CatalogSweepIngestor &ingestor_;
    Tracer &tracer_;
    uint32_t parent_ = 0;
};

struct Completion
{
    std::thread::id thread;
    Clock::time_point at;
};

/** Per-worker gaps between consecutive completions: each is one
 *  task's run time plus its share of delivery. A worker's first
 *  completion has no start mark and is skipped. */
std::vector<double>
taskGapsMs(std::vector<Completion> done)
{
    std::stable_sort(done.begin(), done.end(),
                     [](const Completion &a, const Completion &b) {
                         return a.thread < b.thread;
                     });
    std::vector<double> gaps;
    for (size_t i = 1; i < done.size(); ++i)
        if (done[i].thread == done[i - 1].thread)
            gaps.push_back(std::chrono::duration<double, std::milli>(
                               done[i].at - done[i - 1].at)
                               .count());
    return gaps;
}

/**
 * One worker over the slice with the analyzers called one by one, so
 * latency (Section 5.2), port usage (Algorithm 1) and throughput
 * (5.3.1 + the 5.3.2 LP) each get their own spans. The measurement
 * cache attached to the harness counts the distinct kernels the
 * simulator ran.
 */
size_t
analyzerPass(const std::function<bool(const isa::InstrVariant &)> &filter,
             Tracer &tracer, uint32_t parent)
{
    size_t kernels = 0;
    for (uarch::UArch arch : uarch::allUArches()) {
        std::unique_ptr<uarch::TimingDb> timing;
        std::unique_ptr<sim::MeasurementHarness> owned;
        {
            Tracer::Scope span = tracer.span("sim.harness", parent);
            timing = std::make_unique<uarch::TimingDb>(instrDb(), arch);
            owned = std::make_unique<sim::MeasurementHarness>(*timing);
        }
        sim::MeasurementHarness &harness = *owned;
        sim::MeasurementCache cache;
        harness.setCache(&cache);

        std::unique_ptr<core::Characterizer> probe;
        core::ChainInstruments instruments;
        std::unique_ptr<core::BlockingSet> sse, avx;
        {
            // The same calls Characterizer::prepare() makes.
            Tracer::Scope span = tracer.span("core.context", parent);
            probe = std::make_unique<core::Characterizer>(instrDb(), arch);
            instruments = core::calibrateInstruments(harness);
            core::BlockingFinder finder(harness);
            sse = std::make_unique<core::BlockingSet>(finder.find(false));
            avx = harness.info().hasExtension(isa::Extension::Avx)
                      ? std::make_unique<core::BlockingSet>(
                            finder.find(true))
                      : std::make_unique<core::BlockingSet>(*sse);
        }
        core::LatencyAnalyzer latency(harness, instruments);
        core::PortUsageAnalyzer ports(harness, *sse, *avx);
        core::ThroughputAnalyzer throughput(harness);
        int num_ports = uarch::uarchInfo(arch).num_ports;

        Tracer::Scope arch_span = tracer.span("core.analyze", parent);
        for (const isa::InstrVariant *v : instrDb().all()) {
            if (!probe->isMeasurable(*v) || !filter(*v))
                continue;
            try {
                core::LatencyResult lat;
                {
                    Tracer::Scope s =
                        tracer.span("core.latency", arch_span.id());
                    lat = latency.analyze(*v);
                }
                core::PortUsageResult usage;
                {
                    Tracer::Scope s =
                        tracer.span("core.ports", arch_span.id());
                    usage = ports.analyze(*v, lat.maxLatency());
                }
                {
                    Tracer::Scope s =
                        tracer.span("core.throughput", arch_span.id());
                    throughput.analyze(*v);
                    if (!v->attrs().uses_divider &&
                        !usage.usage.entries.empty())
                        core::ThroughputAnalyzer::computeFromPortUsage(
                            usage.usage, num_ports);
                }
            } catch (const std::exception &) {
                // Failing variants fail in the sweep too, where they
                // are counted.
            }
        }
        kernels += cache.size();
    }
    return kernels;
}

} // namespace

std::function<bool(const isa::InstrVariant &)>
sliceFilter(uint64_t seed, int modulus)
{
    uint64_t offset = seed % static_cast<uint64_t>(modulus);
    return [offset, modulus](const isa::InstrVariant &v) {
        return (static_cast<uint64_t>(v.id()) + offset) %
                   static_cast<uint64_t>(modulus) ==
               0;
    };
}

SweepPass
runSweepPass(std::function<bool(const isa::InstrVariant &)> filter,
             size_t workers, const std::string &dir, Tracer &tracer,
             uint32_t parent)
{
    const std::vector<uarch::UArch> &arches = uarch::allUArches();
    std::mutex done_mutex;
    std::vector<Completion> done;
    done.reserve(4096);

    db::CatalogSweepIngestor ingestor;
    for (uarch::UArch arch : arches)
        ingestor.declareArch(arch);
    ForwardingSink sink(ingestor, tracer);

    core::BatchOptions options;
    options.num_threads = workers;
    options.characterizer.filter = std::move(filter);
    options.sink = &sink;
    options.on_variant_done = [&](uarch::UArch, const isa::InstrVariant &,
                                  bool) {
        Clock::time_point at = Clock::now();
        std::lock_guard<std::mutex> lock(done_mutex);
        done.push_back({std::this_thread::get_id(), at});
    };

    SweepPass pass;
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope span = tracer.span("core.sweep", parent);
        sink.setParent(span.id());
        pass.report = core::runBatchSweep(instrDb(), arches, options);
    }
    {
        Tracer::Scope span = tracer.span("db.build", parent);
        pass.catalog = std::make_shared<const db::DatabaseCatalog>(
            ingestor.takeShards(), 1);
    }
    {
        Tracer::Scope span = tracer.span("db.publish", parent);
        db::saveCatalogDir(*pass.catalog, dir);
    }
    Clock::time_point committed = Clock::now();

    std::vector<Clock::time_point> times;
    for (const Completion &c : done)
        times.push_back(c.at);
    std::sort(times.begin(), times.end());
    if (!times.empty()) {
        pass.setup_s =
            std::chrono::duration<double>(times.front() - t0).count();
        pass.after_tasks = times.size() - 1;
        pass.after_s = std::chrono::duration<double>(committed -
                                                     times.front())
                           .count();
        pass.throughput =
            pass.after_s > 0 ? pass.after_tasks / pass.after_s : 0;
        size_t k = std::min(times.size(), workers);
        pass.batch_tail_ms = std::chrono::duration<double, std::milli>(
                                 times.back() - times[times.size() - k])
                                 .count();
    }
    pass.task_ms = taskGapsMs(std::move(done));
    pass.publish_bytes = directoryBytes(dir);
    return pass;
}

void
checkSweepPass(SweepPass &pass, const std::string &dir, Result &checks)
{
    for (const core::UArchReport &ureport : pass.report.uarches) {
        const uarch::TimingDb &truth = timingDb(ureport.arch);
        for (const core::VariantOutcome &outcome : ureport.outcomes) {
            checks.check(outcome.ok,
                         "sweep: " + outcome.variant->name() + " on " +
                             uarch::uarchShortName(ureport.arch) +
                             " failed: " + outcome.error);
            if (!outcome.ok)
                continue;
            ++pass.succeeded;
            if (uarch::PortUsage::ofTiming(
                    truth.timing(*outcome.variant).uops) ==
                outcome.result.ports.usage)
                ++pass.port_exact;
        }
    }
    std::shared_ptr<const db::DatabaseCatalog> reopened;
    try {
        reopened = db::loadCatalogDir(dir, db::LoadMode::Mmap, true);
    } catch (const std::exception &e) {
        checks.fail(std::string("sweep: reopen failed: ") + e.what());
    }
    if (reopened) {
        checks.check(reopened->numRecords() == pass.succeeded,
                     "sweep: reopened catalog holds " +
                         std::to_string(reopened->numRecords()) +
                         " records, expected " +
                         std::to_string(pass.succeeded));
        checks.check(reopened->contentHash() == pass.catalog->contentHash(),
                     "sweep: reopened catalog content hash differs");
    }
}

Outcome
runSweep(const Args &args, Tracer &tracer)
{
    Outcome outcome;
    Result &result = outcome.result;
    const size_t workers = std::max(1u, hardwareThreads() / 2);
    outcome.layout = "sweep workers=" + std::to_string(workers);
    ScopedDir scratch(args.workdir + "/sweep-" +
                      std::to_string(::getpid()));
    instrDb();

    // A pass is a traced phase (a root span); its output checks run
    // after it.
    int index = 0;
    auto run_pass = [&](uint64_t quarter, Tracer &spans) {
        std::string dir =
            scratch.path() + "/pass-" + std::to_string(index++);
        SweepPass pass;
        {
            Tracer::Scope root = spans.span("sweep.pipeline");
            pass = runSweepPass(sliceFilter(quarter, 4), workers, dir, spans,
                                root.id());
        }
        checkSweepPass(pass, dir, result);
        removeTree(dir);
        return pass;
    };

    if (!args.trace) {
        // Whole-ISA rounds: four passes, one per quarter, starting at
        // the seed's, so a run's figures do not depend on which
        // instructions one quarter happens to hold. Timing figures are
        // pooled over a round and the median over rounds is reported.
        Clock::time_point start = Clock::now();
        std::vector<double> setups, rates, p50s, p95s;
        size_t exact = 0, succeeded = 0;
        double round_s = 0;
        while (rates.empty() || secondsSince(start) + round_s < args.seconds) {
            Clock::time_point r0 = Clock::now();
            size_t tasks = 0;
            double busy = 0;
            std::vector<double> task_ms;
            for (uint64_t q = 0; q < 4; ++q) {
                Tracer off(false);
                SweepPass pass = run_pass(args.seed + q, off);
                setups.push_back(pass.setup_s);
                tasks += pass.after_tasks;
                busy += pass.after_s;
                task_ms.insert(task_ms.end(), pass.task_ms.begin(),
                               pass.task_ms.end());
                exact += pass.port_exact;
                succeeded += pass.succeeded;
            }
            rates.push_back(busy > 0 ? tasks / busy : 0);
            p50s.push_back(quantile(task_ms, 0.5));
            p95s.push_back(quantile(task_ms, 0.95));
            round_s = secondsSince(r0);
        }
        EndToEnd e2e;
        e2e.setup_s = isaTablesSeconds() + median(setups);
        e2e.throughput_per_s = median(rates);
        e2e.p50_ms = median(p50s);
        e2e.p95_ms = median(p95s);
        e2e.port_exact_frac =
            succeeded ? static_cast<double>(exact) / succeeded : 0;
        setEndToEnd(result, e2e);
        return outcome;
    }

    // Traced run: the traced pipeline between two untraced passes
    // (the overhead reference), then calibration and the one-worker
    // analyzer pass. Each traced phase is a root span.
    Tracer off(false);
    SweepPass before = run_pass(args.seed, off);
    SweepPass traced = run_pass(args.seed, tracer);
    double reference_rate =
        (before.throughput + run_pass(args.seed, off).throughput) / 2;
    auto filter = sliceFilter(args.seed, 4);

    LayerValues layers;
    {
        Tracer::Scope root = tracer.span("sweep.layers");
        {
            Tracer::Scope span = tracer.span("core.calibrate", root.id());
            for (uarch::UArch arch : uarch::allUArches()) {
                core::Characterizer::Options options;
                options.filter = filter;
                core::Characterizer characterizer(instrDb(), arch,
                                                  options);
                characterizer.prepare();
            }
        }
        layers["sim.kernels_distinct"] =
            static_cast<double>(analyzerPass(filter, tracer, root.id()));
    }

    layers["core.calibrate_ms"] = tracer.selfMs("core.calibrate");
    layers["core.latency_ms"] = tracer.selfMs("core.latency");
    layers["core.ports_ms"] = tracer.selfMs("core.ports");
    layers["core.throughput_ms"] = tracer.selfMs("core.throughput");
    layers["core.batch_tail_ms"] = traced.batch_tail_ms;
    layers["tail.p99_ms"] = quantile(traced.task_ms, 0.99);
    layers["db.ingest_ms"] = tracer.selfMs("db.ingest");
    layers["db.publish_ms"] = tracer.selfMs("db.publish");
    layers["db.publish_bytes"] = static_cast<double>(traced.publish_bytes);
    layers["trace.unattributed_frac"] = tracer.unattributedFrac();
    layers["trace.overhead_frac"] =
        reference_rate > 0 ? 1.0 - traced.throughput / reference_rate : 0;
    setLayerMetrics(result, layers);
    return outcome;
}

} // namespace perfbench
