/**
 * @file
 * Benchmarks for the serving subsystem: database point lookups,
 * port-mask columnar scans, compound-predicate scans and
 * cross-generation analytics diffs through the scan executor,
 * /predict through the query service with a
 * cold vs. warm response cache, the two ingest paths — direct
 * (per-record appends, exactly what the streaming
 * CatalogSweepIngestor does) versus materializing and re-parsing the
 * results XML — and catalog loading (map, check, bind).
 *
 * The catalog is built once from a standard two-uarch sweep slice
 * (the same `id % 4 == 0` slice the batch-sweep scaling study uses),
 * so numbers are comparable across PRs; point lookups and scans run
 * on its Skylake shard.
 *
 * Usage, for perf tracking (BENCH_db.json):
 *
 *     bench_db_query --json <path>
 *
 * writes one record {name, iterations, wall_ms, ops_per_s} per
 * benchmark.
 */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench_util.h"
#include "core/batch.h"
#include "db/catalog.h"
#include "server/service.h"

namespace uops::bench {
namespace {

const core::CharacterizationReport &
sliceReport()
{
    static const core::CharacterizationReport report = [] {
        core::BatchOptions options;
        // The scaling-study slice, plus every ADD/IMUL variant so the
        // /predict benchmark kernel is guaranteed to be present.
        options.characterizer.filter = [](const isa::InstrVariant &v) {
            return v.id() % 4 == 0 || v.mnemonic() == "ADD" ||
                   v.mnemonic() == "IMUL";
        };
        return core::runBatchSweep(
            db(), {uarch::UArch::Nehalem, uarch::UArch::Skylake},
            options);
    }();
    return report;
}

/** Direct ingest: drive the actual streaming CatalogSweepIngestor
 *  over the report's outcomes — per-record appends from references
 *  plus one index rebuild per shard, exactly the work a sweep's sink
 *  performs (no intermediate CharacterizationSet copy). */
std::vector<db::ShardEntry>
ingestDirect()
{
    db::CatalogSweepIngestor ingestor;
    for (const core::UArchReport &r : sliceReport().uarches)
        for (const core::VariantOutcome &outcome : r.outcomes)
            ingestor.onVariant(r.arch, outcome);
    ingestor.finish();
    return ingestor.takeShards();
}

/** The slice as a sharded catalog (what QueryService serves). */
std::shared_ptr<const db::DatabaseCatalog>
sliceCatalog()
{
    static const auto catalog =
        std::make_shared<const db::DatabaseCatalog>(ingestDirect(), 1);
    return catalog;
}

/** On-disk catalog dir for the snapshot_load benchmark. */
const std::string &
catalogDir()
{
    static const std::string dir = [] {
        std::string path = "/tmp/uops_bench_catalog";
        std::filesystem::remove_all(path);
        db::saveCatalogDir(*sliceCatalog(), path);
        return path;
    }();
    return dir;
}

/** The Skylake shard: what the point and scan benchmarks query. */
const db::InstructionDatabase &
skylakeShard()
{
    return *sliceCatalog()->shard(uarch::UArch::Skylake);
}

/** The XML path: materialize the Section 6.4 XML tree, serialize,
 *  re-parse, build the shards of the document. */
size_t
ingestViaXml()
{
    isa::ResultsDoc doc =
        isa::parseResultsXml(sliceReport().toXmlString());
    size_t records = 0;
    for (const db::ShardEntry &entry :
         db::DatabaseCatalog::shardsFromResults(doc, &db()))
        records += entry.db->numRecords();
    return records;
}

/** Names of every Skylake record (lookup working set). */
const std::vector<std::string> &
skylakeNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        const db::InstructionDatabase &shard = skylakeShard();
        for (uint32_t row = 0;
             row < static_cast<uint32_t>(shard.numRecords()); ++row)
            out.emplace_back(shard.record(row).name());
        return out;
    }();
    return names;
}

server::HttpRequest
predictRequest(size_t salt)
{
    // A distinct dummy parameter defeats the response cache (the key
    // is the raw target), while the handler ignores it — this is the
    // cold-cache workload.
    server::HttpRequest request;
    request.method = "GET";
    request.target = "/predict?uarch=SKL&asm=ADD RAX, RBX;IMUL RCX, "
                     "RAX&salt=" +
                     std::to_string(salt);
    request.path = "/predict";
    request.query["uarch"] = "SKL";
    request.query["asm"] = "ADD RAX, RBX;IMUL RCX, RAX";
    request.query["salt"] = std::to_string(salt);
    return request;
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
    // Best-of-three repetitions: the recorded figure is the fastest
    // rep. On a shared single-core box a scheduler preemption inside
    // the loop inflates wall time several-fold; the minimum over
    // independent reps is the standard way to report the machine's
    // actual capability (and what the CI ratio floors compare).
    JsonRun run;
    run.name = name;
    run.iterations = iterations;
    run.wall_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < iterations; ++i)
            fn(i);
        auto t1 = std::chrono::steady_clock::now();
        double wall_ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        if (rep == 0 || wall_ms < run.wall_ms)
            run.wall_ms = wall_ms;
    }
    run.ops_per_s = run.wall_ms > 0.0
                        ? 1000.0 * static_cast<double>(iterations) /
                              run.wall_ms
                        : 0.0;
    return run;
}

int
jsonMode(const std::string &path)
{
    const auto &database = skylakeShard();
    const auto &names = skylakeNames();

    std::vector<JsonRun> runs;
    runs.push_back(timedLoop("point_lookup", 200000, [&](size_t i) {
        auto row = database.find(names[i % names.size()]);
        doNotOptimize(
            database.record(*row).tpMeasured());
    }));

    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.uses_ports = uarch::portMask({0, 5});
    runs.push_back(timedLoop("port_mask_scan", 20000, [&](size_t) {
        auto rows = database.search(query);
        doNotOptimize(rows.size());
    }));

    db::Query compound;
    compound.arch = uarch::UArch::Skylake;
    compound.uses_ports = uarch::portMask({0, 5});
    compound.uops_max = 2;
    compound.lat_max = 4;
    runs.push_back(timedLoop("scan_compound", 20000, [&](size_t) {
        auto rows = database.search(compound);
        doNotOptimize(rows.size());
    }));

    {
        auto catalog = sliceCatalog();
        db::AnalyticsQuery diff;
        diff.from = uarch::UArch::Nehalem;
        diff.to = uarch::UArch::Skylake;
        diff.direction = db::AnalyticsQuery::Direction::Changed;
        runs.push_back(timedLoop("analytics_diff", 5000, [&](size_t) {
            auto result = catalog->analytics(diff);
            doNotOptimize(result.entries.size());
        }));
    }

    {
        server::QueryService service(sliceCatalog(), db());
        // The salt must keep advancing across timedLoop's reps —
        // reusing per-rep indices would let later reps hit the
        // response cache and report the cached path as uncached.
        size_t salt = 0;
        runs.push_back(
            timedLoop("predict_uncached", 2000, [&](size_t) {
                auto response = service.handle(predictRequest(salt++));
                doNotOptimize(response.body.size());
            }));
    }
    {
        server::QueryService service(sliceCatalog(), db());
        server::HttpRequest request = predictRequest(0);
        service.handle(request);
        runs.push_back(
            timedLoop("predict_cached", 200000, [&](size_t) {
                auto response = service.handle(request);
                doNotOptimize(response.body.size());
            }));
    }
    {
        // The same cached hot path with full observability switched
        // on — info-level access log (to a discarding sink, so the
        // datapoint measures instrumentation, not stderr I/O) plus
        // the per-request ID mint. Guards the overhead budget: this
        // run must stay within tolerance of its own baseline, and
        // predict_cached above proves the log-off path didn't pay.
        server::QueryService::Options options;
        options.log_level = obs::LogLevel::Info;
        server::QueryService service(sliceCatalog(), db(), options);
        size_t log_bytes = 0;
        service.logger().setSink([&](std::string_view line) {
            log_bytes += line.size();
        });
        server::HttpRequest request = predictRequest(0);
        service.handle(request);
        runs.push_back(
            timedLoop("predict_cached_logged", 200000, [&](size_t) {
                auto response = service.handle(request);
                doNotOptimize(response.body.size());
            }));
        doNotOptimize(log_bytes);
    }

    runs.push_back(timedLoop("ingest_direct", 500, [&](size_t) {
        doNotOptimize(ingestDirect().size());
    }));
    runs.push_back(timedLoop("ingest_via_xml", 100, [&](size_t) {
        doNotOptimize(ingestViaXml());
    }));

    catalogDir();
    // Hash verification reads every byte, which would dominate; the
    // load benchmark measures the pure load path (verification is
    // covered functionally in db_test).
    runs.push_back(timedLoop("snapshot_load_mmap", 2000, [&](size_t) {
        auto catalog = db::loadCatalogDir(catalogDir(),
                                          db::LoadMode::Mmap, false);
        doNotOptimize(catalog->numRecords());
    }));

    std::string out = "{\n  \"benchmark\": \"bench_db_query\",\n";
    out += "  \"records\": " +
           std::to_string(sliceCatalog()->numRecords()) +
           ",\n  \"runs\": [\n";
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
