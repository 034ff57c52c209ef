/**
 * @file
 * Benchmarks for the /predict kernel compute service: a cold request
 * (admission -> assemble -> cycle-level simulation -> static analysis
 * -> JSON render), a memoized request (same kernel fingerprint, the
 * stored response replayed byte-identically), and concurrent clients
 * batched onto the engine's worker pool.
 *
 * All three drive QueryService::handle() with POST requests — POSTs
 * bypass the outer response cache, so `predict_cold` measures the
 * full compute path (every iteration a unique kernel fingerprint),
 * `predict_memoized` measures exactly the kernel-memo hit, and
 * `predict_concurrent` measures aggregate throughput with four
 * client threads over a mixed unique-kernel workload.
 *
 * Usage, for perf tracking (BENCH_predict.json):
 *
 *     bench_predict --json <path>
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "core/batch.h"
#include "db/catalog.h"
#include "server/service.h"

namespace uops::bench {
namespace {

/** A small catalog covering the benchmark kernels' mnemonics on
 *  Skylake, so the static-analysis half of the response is exercised
 *  too (not just the simulation). */
std::shared_ptr<const db::DatabaseCatalog>
benchCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                const std::string &m = v.mnemonic();
                return m == "ADD" || m == "IMUL" || m == "MOV";
            };
        return db::runCatalogSweep(db(), {uarch::UArch::Skylake},
                                   options, nullptr);
    }();
    return catalog;
}

server::HttpRequest
postPredict(std::string listing)
{
    server::HttpRequest request;
    request.method = "POST";
    request.target = "/predict?uarch=SKL";
    request.path = "/predict";
    request.query["uarch"] = "SKL";
    request.body = std::move(listing);
    return request;
}

/** A unique kernel per @p i: the displacement varies the fingerprint
 *  (distinct memory tags are distinct kernels to the simulator), so
 *  neither the response cache nor the kernel memo can serve it. */
std::string
uniqueKernel(size_t i)
{
    return "MOV RAX, [RBX+" + std::to_string(1 + i % 1000000) +
           "]\nADD RAX, RCX\nIMUL RCX, RAX";
}

const std::string &
fixedKernel()
{
    static const std::string kernel =
        "ADD RAX, RBX\nIMUL RCX, RAX\nMOV RDX, [RSI+8]";
    return kernel;
}

// ---------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------

struct JsonRun
{
    const char *name;
    size_t iterations;
    double wall_ms;
    double ops_per_s;
};

template <typename Fn>
JsonRun
timedLoop(const char *name, size_t iterations, Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iterations; ++i)
        fn(i);
    auto t1 = std::chrono::steady_clock::now();
    JsonRun run;
    run.name = name;
    run.iterations = iterations;
    run.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    run.ops_per_s = run.wall_ms > 0.0
                        ? 1000.0 * static_cast<double>(iterations) /
                              run.wall_ms
                        : 0.0;
    return run;
}

JsonRun
concurrentRun()
{
    constexpr size_t kClients = 4;
    constexpr size_t kPerClient = 150;

    server::QueryService::Options options;
    options.engine.num_threads = 2;
    server::QueryService service(benchCatalog(), db(), options);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    std::atomic<size_t> failures{0};
    for (size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < kPerClient; ++i) {
                auto response = service.handle(postPredict(
                    uniqueKernel(t * kPerClient + i)));
                if (response.status != 200)
                    ++failures;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    auto t1 = std::chrono::steady_clock::now();
    if (failures.load() != 0)
        std::fprintf(stderr, "predict_concurrent: %zu failures\n",
                     failures.load());

    JsonRun run;
    run.name = "predict_concurrent";
    run.iterations = kClients * kPerClient;
    run.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    run.ops_per_s =
        run.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(run.iterations) /
                  run.wall_ms
            : 0.0;
    return run;
}

int
jsonMode(const std::string &path)
{
    std::vector<JsonRun> runs;
    {
        server::QueryService service(benchCatalog(), db());
        runs.push_back(timedLoop("predict_cold", 400, [&](size_t i) {
            auto response =
                service.handle(postPredict(uniqueKernel(i)));
            doNotOptimize(response.body.size());
        }));
    }
    {
        server::QueryService service(benchCatalog(), db());
        service.handle(postPredict(fixedKernel()));
        runs.push_back(
            timedLoop("predict_memoized", 100000, [&](size_t) {
                auto response =
                    service.handle(postPredict(fixedKernel()));
                doNotOptimize(response.body.size());
            }));
    }
    runs.push_back(concurrentRun());

    std::string out = "{\n  \"benchmark\": \"bench_predict\",\n";
    out += "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"iterations\": %zu, "
                      "\"wall_ms\": %.1f, \"ops_per_s\": %.0f}%s\n",
                      runs[i].name, runs[i].iterations,
                      runs[i].wall_ms, runs[i].ops_per_s,
                      i + 1 < runs.size() ? "," : "");
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
    if (argc != 3 || std::strcmp(argv[1], "--json") != 0) {
        std::fprintf(stderr, "usage: %s --json PATH\n", argv[0]);
        return 2;
    }
    return uops::bench::jsonMode(argv[2]);
}
