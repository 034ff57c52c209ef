/**
 * @file
 * Scaling study of the batch characterization engine: sweep a slice of
 * the instruction set over two microarchitectures with 1..N worker
 * threads and report the parallel speedup.
 *
 * Full-ISA characterization is embarrassingly parallel per
 * (variant, uarch) task; the work-stealing pool should scale nearly
 * linearly until the per-worker Characterizer setup (blocking-set
 * discovery) dominates.
 *
 * Machine-readable mode for perf tracking (BENCH_sweep.json / CI):
 *
 *     bench_batch_sweep --json <path> [--mod N] [--threads 1,2,4]
 *
 * runs the sweep once per thread count and writes one record
 * {threads, tasks, wall_ms, tasks_per_s} per run instead of printing
 * the scaling table. --mod widens/narrows the variant slice
 * (filter: id % N == 0; default 4, the scaling-study slice).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "core/batch.h"
#include "support/strings.h"

namespace uops::bench {
namespace {

const std::vector<uarch::UArch> kArches = {uarch::UArch::Nehalem,
                                           uarch::UArch::Skylake};

core::BatchOptions
sweepOptions(size_t threads, int mod = 4)
{
    core::BatchOptions options;
    options.num_threads = threads;
    // A representative slice: keeps the study to a few seconds while
    // covering GPR, vector, divider and memory variants.
    options.characterizer.filter = [mod](const isa::InstrVariant &v) {
        return v.id() % mod == 0;
    };
    return options;
}

struct SweepRun
{
    size_t threads = 0;
    size_t tasks = 0;
    double wall_ms = 0.0;
    double tasks_per_s = 0.0;
};

SweepRun
timedSweep(size_t threads, int mod)
{
    auto t0 = std::chrono::steady_clock::now();
    auto report =
        core::runBatchSweep(db(), kArches, sweepOptions(threads, mod));
    auto t1 = std::chrono::steady_clock::now();
    SweepRun run;
    run.threads = threads;
    run.tasks = report.numTasks();
    run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0)
                      .count();
    run.tasks_per_s = run.wall_ms > 0.0
                          ? 1000.0 * static_cast<double>(run.tasks) /
                                run.wall_ms
                          : 0.0;
    return run;
}

void
printScalingStudy()
{
    header("Batch sweep scaling: 2 uarches, 1..8 worker threads");

    size_t hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %zu\n\n", hw);
    std::printf("  %-8s %10s %9s %10s\n", "threads", "tasks", "time",
                "speedup");

    double base = 0.0;
    for (size_t threads : {1, 2, 4, 8}) {
        SweepRun run = timedSweep(threads, 4);
        double secs = run.wall_ms / 1000.0;
        if (threads == 1)
            base = secs;
        std::printf("  %-8zu %10zu %8.2fs %9.2fx\n", threads,
                    run.tasks, secs, base / secs);
    }
    std::printf("\n");
}

/** {threads, tasks, wall_ms, tasks_per_s} records, one per run. */
int
jsonMode(const std::string &path, int mod,
         const std::vector<size_t> &thread_counts)
{
    std::string out = "{\n  \"benchmark\": \"bench_batch_sweep\",\n";
    out += "  \"arches\": [\"NHM\", \"SKL\"],\n";
    out += "  \"filter\": \"id % " + std::to_string(mod) +
           " == 0\",\n  \"runs\": [\n";
    for (size_t i = 0; i < thread_counts.size(); ++i) {
        SweepRun run = timedSweep(thread_counts[i], mod);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    {\"threads\": %zu, \"tasks\": %zu, "
                      "\"wall_ms\": %.1f, \"tasks_per_s\": %.1f}%s\n",
                      run.threads, run.tasks, run.wall_ms,
                      run.tasks_per_s,
                      i + 1 < thread_counts.size() ? "," : "");
        out += buf;
        std::printf("%s", buf);
    }
    out += "  ]\n}\n";

    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    file << out;
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace
} // namespace uops::bench

int
main(int argc, char **argv)
{
    auto parse_count = [](const std::string &text, const char *what) {
        auto value = uops::parseInt(text);
        if (!value || *value < 1) {
            std::fprintf(stderr,
                         "error: %s expects an integer >= 1, got '%s'\n",
                         what, text.c_str());
            std::exit(1);
        }
        return *value;
    };
    std::string json_path;
    int mod = 4;
    std::vector<size_t> thread_counts = {1, 4};
    auto take_value = [&](int &i, const char *what) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s requires a value\n", what);
            std::exit(1);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = take_value(i, "--json");
        } else if (std::strcmp(argv[i], "--mod") == 0) {
            mod = static_cast<int>(
                parse_count(take_value(i, "--mod"), "--mod"));
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            thread_counts.clear();
            for (const std::string &t :
                 uops::split(take_value(i, "--threads"), ','))
                thread_counts.push_back(
                    static_cast<size_t>(parse_count(t, "--threads")));
        } else {
            std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
            return 1;
        }
    }
    if (!json_path.empty())
        return uops::bench::jsonMode(json_path, mod, thread_counts);

    uops::bench::printScalingStudy();
    return 0;
}
