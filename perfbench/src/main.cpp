/**
 * @file
 * Entry point of the repository benchmark:
 *
 *     uops_perfbench --workload sweep|serve_hot --seed N
 *                    --seconds S --trace 0|1 [--workdir DIR]
 *                    [--git-sha SHA]
 *
 * Prints a machine-stamp line, then as the last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer ones with
 * --trace 1. Exits 1 when a correctness check failed.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in print order (BENCHMARK.json lists the
 *  same names; perfbench/layers.json says what each one measures). */
constexpr LayerMetric kLayerMetrics[] = {
    {"tail.p99_ms", "ms"},
    {"core.calibrate_ms", "ms"},
    {"core.latency_ms", "ms"},
    {"core.ports_ms", "ms"},
    {"core.throughput_ms", "ms"},
    {"sim.kernels_distinct", "count"},
    {"core.batch_tail_ms", "ms"},
    {"db.ingest_ms", "ms"},
    {"db.publish_ms", "ms"},
    {"db.publish_bytes", "bytes"},
    {"server.inproc_per_s", "1/s"},
    {"server.transport_eff", "ratio"},
    {"server.raw_lane_frac", "ratio"},
    {"server.cache_hit_frac", "ratio"},
    {"server.handle_p50_us", "us"},
    {"obs.log_bytes_per_req", "bytes"},
    {"server.search_p50_ms", "ms"},
    {"server.predict_p50_ms", "ms"},
    {"db.search_us", "us"},
    {"db.rows_per_hit", "ratio"},
    {"db.analytics_us", "us"},
    {"server.query_render_us", "us"},
    {"isa.assemble_us", "us"},
    {"sim.block_predict_us", "us"},
    {"server.engine_sims", "count"},
    {"server.memo_hit_frac", "ratio"},
    {"db.open_ms", "ms"},
    {"server.blob_build_ms", "ms"},
    {"server.swap_ms", "ms"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "error: %s\nusage: uops_perfbench --workload "
                 "sweep|serve_hot --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--git-sha SHA]\n",
                 message);
    return 2;
}

} // namespace

void
setLayerMetrics(Result &result, const LayerValues &values)
{
    for (const LayerMetric &metric : kLayerMetrics) {
        auto it = values.find(metric.name);
        result.set(metric.name, it == values.end() ? 0.0 : it->second,
                   metric.unit);
    }
}

void
setEndToEnd(Result &result, const EndToEnd &values)
{
    result.set("setup_s", values.setup_s, "s");
    result.set("throughput_per_s", values.throughput_per_s, "1/s");
    result.set("p50_ms", values.p50_ms, "ms");
    result.set("p95_ms", values.p95_ms, "ms");
    result.set("peak_rss_mb", peakRssMb(), "MiB");
    result.set("ok_frac",
               result.attempted
                   ? static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               "ratio");
    result.set("port_exact_frac", values.port_exact_frac, "ratio");
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = value == "1";
            else if (flag == "--workdir")
                args.workdir = value;
            else if (flag == "--git-sha")
                args.git_sha = value;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (args.seconds <= 0)
        return usage("--seconds must be positive");
    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);

    NoiseCounters before = NoiseCounters::now();
    Tracer tracer(args.trace);
    Outcome outcome;
    try {
        if (args.workload == "sweep")
            outcome = runSweep(args, tracer);
        else if (args.workload == "serve_hot")
            outcome = runServeHot(args, tracer);
        else
            return usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    NoiseCounters after = NoiseCounters::now();
    if (args.trace)
        tracer.write(args.workdir + "/trace-" + args.workload + ".json",
                     20000);

    std::printf("%s\n",
                machineStamp(args, outcome.layout, before, after).c_str());
    std::printf("%s\n", outcome.result.json().c_str());
    std::fflush(stdout);
    return outcome.result.correct ? 0 : 1;
}
