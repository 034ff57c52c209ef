/**
 * @file
 * Fault-injection and crash-recovery tests for the storage stack:
 * the FaultInjector itself (spec grammar, arming, tracing), the
 * atomic-write I/O seam (torn writes, per-step failures), and the
 * headline crash matrix — drive one catalog commit through *every*
 * failpoint site it crosses, kill it there, and assert that
 * reopening the directory always yields a consistent, hash-verified
 * generation: the old one before the commit point, the new one
 * after, never a mix and never a crash.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "isa/results_xml.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "test_util.h"

namespace uops::test {
namespace {

namespace fs = std::filesystem;

/** Disarms everything on scope exit so no test can leak an armed
 *  fault into the next one (or into another suite's I/O). */
struct FaultGuard
{
    FaultGuard() { FaultInjector::instance().reset(); }
    ~FaultGuard() { FaultInjector::instance().reset(); }
};

/** Fresh, empty temp directory for one test (or one matrix entry). */
std::string
freshDir(const std::string &name)
{
    auto path = fs::temp_directory_path() /
                ("uops_fault_test_" + name);
    fs::remove_all(path);
    return path.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return std::move(os).str();
}

void
spill(const std::string &path, std::string_view bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(os)) << path;
}

/** Names of every file in @p dir. */
std::set<std::string>
dirListing(const std::string &dir)
{
    std::set<std::string> names;
    for (const auto &de : fs::directory_iterator(dir))
        names.insert(de.path().filename().string());
    return names;
}

/** Tiny two-mnemonic slice: fast enough to characterize per-test. */
bool
tinyFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR";
}

core::BatchOptions
tinyOptions()
{
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = tinyFilter;
    options.keep_results = false;
    return options;
}

/** Generation-1 catalog: Nehalem only. */
std::shared_ptr<const db::DatabaseCatalog>
baseCatalog()
{
    static const auto catalog =
        db::runCatalogSweep(defaultDb(), {uarch::UArch::Nehalem},
                            tinyOptions(), nullptr);
    return catalog;
}

/** Generation-2 catalog: Skylake spliced onto the base. */
std::shared_ptr<const db::DatabaseCatalog>
splicedCatalog()
{
    static const auto catalog =
        db::runCatalogSweep(defaultDb(), {uarch::UArch::Skylake},
                            tinyOptions(), baseCatalog().get());
    return catalog;
}

/** The generation a reopened directory serves, checked for internal
 *  consistency against the golden catalogs. */
uint64_t
verifyReopen(const std::string &dir, db::RecoveryReport *report)
{
    auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap, true,
                                     report);

    const db::DatabaseCatalog &want = loaded->generation() == 1
                                          ? *baseCatalog()
                                          : *splicedCatalog();
    EXPECT_EQ(loaded->numRecords(), want.numRecords());
    EXPECT_EQ(loaded->uarches(), want.uarches());
    auto nhmAddTp = [](const db::DatabaseCatalog &catalog)
        -> std::optional<Cycles> {
        const db::InstructionDatabase *nhm =
            catalog.shard(uarch::UArch::Nehalem);
        if (nhm == nullptr)
            return std::nullopt;
        auto row = nhm->find("ADD_R64_R64");
        if (!row)
            return std::nullopt;
        return nhm->record(*row).tpMeasured();
    };
    EXPECT_EQ(nhmAddTp(*loaded), nhmAddTp(want));
    return loaded->generation();
}

// ---------------------------------------------------------------------
// FaultInjector mechanics.
// ---------------------------------------------------------------------

TEST(FaultInjector, ParseSpecGrammar)
{
    FaultSpec spec = FaultInjector::parseSpec("error");
    EXPECT_EQ(spec.action, FaultSpec::Action::Error);
    EXPECT_EQ(spec.on_hit, 1u);
    EXPECT_FALSE(spec.always);
    EXPECT_FALSE(spec.partial);

    spec = FaultInjector::parseSpec("crash@3");
    EXPECT_EQ(spec.action, FaultSpec::Action::Crash);
    EXPECT_EQ(spec.on_hit, 3u);

    spec = FaultInjector::parseSpec("error@2*~");
    EXPECT_EQ(spec.action, FaultSpec::Action::Error);
    EXPECT_EQ(spec.on_hit, 2u);
    EXPECT_TRUE(spec.always);
    EXPECT_TRUE(spec.partial);

    EXPECT_THROW(FaultInjector::parseSpec("explode"), FatalError);
    EXPECT_THROW(FaultInjector::parseSpec("error@0"), FatalError);
    EXPECT_THROW(FaultInjector::parseSpec("error@x"), FatalError);
}

TEST(FaultInjector, FiresOnceOnTheArmedHit)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    FaultSpec spec;
    spec.on_hit = 2;
    injector.arm("t.site", spec);

    EXPECT_FALSE(injector.poll("t.site").has_value());   // hit 1
    EXPECT_TRUE(injector.poll("t.site").has_value());    // hit 2
    EXPECT_FALSE(injector.poll("t.site").has_value());   // disarmed
    EXPECT_EQ(injector.hits("t.site"), 3u);
    EXPECT_FALSE(injector.poll("other.site").has_value());
}

TEST(FaultInjector, AlwaysKeepsFiring)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    FaultSpec spec;
    spec.on_hit = 2;
    spec.always = true;
    injector.arm("t.site", spec);

    EXPECT_FALSE(injector.poll("t.site").has_value());
    EXPECT_TRUE(injector.poll("t.site").has_value());
    EXPECT_TRUE(injector.poll("t.site").has_value());
    injector.disarm("t.site");
    EXPECT_FALSE(injector.poll("t.site").has_value());
}

TEST(FaultInjector, TracingEnumeratesSitesInFirstHitOrder)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    injector.setTracing(true);
    (void)injector.poll("b.site");
    (void)injector.poll("a.site");
    (void)injector.poll("b.site");

    auto traced = injector.tracedSites();
    ASSERT_EQ(traced.size(), 2u);
    EXPECT_EQ(traced[0].first, "b.site");
    EXPECT_EQ(traced[0].second, 2u);
    EXPECT_EQ(traced[1].first, "a.site");
    EXPECT_EQ(traced[1].second, 1u);

    injector.reset();
    EXPECT_TRUE(injector.tracedSites().empty());
    EXPECT_EQ(injector.hits("b.site"), 0u);
}

TEST(FaultInjector, ArmFromEnvironmentStyleList)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    injector.armFromList("a.site=crash, b.site=error@2*");
    EXPECT_TRUE(injector.poll("a.site").has_value());
    EXPECT_FALSE(injector.poll("b.site").has_value());
    auto spec = injector.poll("b.site");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->action, FaultSpec::Action::Error);

    injector.armFromList("");   // no-op
    EXPECT_THROW(injector.armFromList("missing-equals"), FatalError);
    EXPECT_THROW(injector.armFromList("=error"), FatalError);
}

// ---------------------------------------------------------------------
// The atomic-write seam.
// ---------------------------------------------------------------------

TEST(AtomicWrite, RoundTripAndOverwrite)
{
    FaultGuard guard;
    const std::string dir = freshDir("io_roundtrip");
    fs::create_directories(dir);
    const std::string path = dir + "/data.bin";

    writeFileAtomic(path, "first", "t");
    EXPECT_EQ(readFileBytes(path, "t"), "first");
    writeFileAtomic(path, "second", "t");
    EXPECT_EQ(readFileBytes(path, "t"), "second");
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    EXPECT_TRUE(removeFile(path));
    EXPECT_FALSE(removeFile(path));   // ENOENT is not an error
    EXPECT_THROW(readFileBytes(path, "t"), IoError);
}

TEST(AtomicWrite, EveryStepFailureLeavesTheOldContent)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    const std::string dir = freshDir("io_steps");
    fs::create_directories(dir);
    const std::string path = dir + "/data.bin";
    writeFileAtomic(path, "old", "t");

    // Failing any step up to and including the rename must leave the
    // committed content untouched; only the dir_fsync step runs
    // after the commit point.
    for (const char *step :
         {"t.open", "t.write", "t.fsync", "t.rename"}) {
        injector.reset();
        injector.arm(step, FaultInjector::parseSpec("error"));
        EXPECT_THROW(writeFileAtomic(path, "new", "t"), IoError)
            << step;
        EXPECT_EQ(slurp(path), "old") << step;
    }

    injector.reset();
    injector.arm("t.dir_fsync", FaultInjector::parseSpec("error"));
    EXPECT_THROW(writeFileAtomic(path, "new", "t"), IoError);
    EXPECT_EQ(slurp(path), "new");   // rename already committed
}

TEST(AtomicWrite, TornWriteTearsTheTmpFileOnly)
{
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    const std::string dir = freshDir("io_torn");
    fs::create_directories(dir);
    const std::string path = dir + "/data.bin";
    writeFileAtomic(path, "old-bytes", "t");

    injector.arm("t.write", FaultInjector::parseSpec("crash~"));
    const std::string payload = "0123456789abcdef";
    EXPECT_THROW(writeFileAtomic(path, payload, "t"), InjectedCrash);

    // Half the payload reached the tmp file — a torn write — and the
    // final name still holds the previous commit.
    EXPECT_EQ(slurp(path), "old-bytes");
    ASSERT_TRUE(fs::exists(path + ".tmp"));
    EXPECT_EQ(slurp(path + ".tmp"), payload.substr(0, 8));

    // Retrying after the "reboot" overwrites the stray tmp cleanly.
    injector.reset();
    writeFileAtomic(path, payload, "t");
    EXPECT_EQ(slurp(path), payload);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------
// The crash matrix (acceptance criterion of this PR).
// ---------------------------------------------------------------------

/** Every (site, occurrence) pair a generation-2 commit crosses,
 *  enumerated by tracing a clean run. */
std::vector<std::pair<std::string, uint64_t>>
traceCommitSites()
{
    FaultGuard guard;
    const std::string dir = freshDir("trace");
    db::saveCatalogDir(*baseCatalog(), dir);

    auto &injector = FaultInjector::instance();
    injector.reset();
    injector.setTracing(true);
    db::saveCatalogDir(*splicedCatalog(), dir);
    auto traced = injector.tracedSites();
    injector.reset();
    return traced;
}

TEST(CrashMatrix, CommitCrossesTheExpectedFailpoints)
{
    auto traced = traceCommitSites();
    std::set<std::string> sites;
    for (const auto &[site, hits] : traced)
        sites.insert(site);
    // The incremental save verifies the pre-existing shard, writes
    // the fresh one atomically, and commits the manifest atomically.
    for (const char *site :
         {"catalog.shard.read", "catalog.shard.open",
          "catalog.shard.write", "catalog.shard.fsync",
          "catalog.shard.rename", "catalog.shard.dir_fsync",
          "catalog.manifest.open", "catalog.manifest.write",
          "catalog.manifest.fsync", "catalog.manifest.rename",
          "catalog.manifest.dir_fsync"})
        EXPECT_TRUE(sites.count(site)) << site;
}

TEST(CrashMatrix, EveryCrashPointRecoversToAConsistentGeneration)
{
    auto traced = traceCommitSites();
    ASSERT_FALSE(traced.empty());

    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    size_t entry = 0;
    for (const auto &[site, occurrences] : traced) {
        for (uint64_t occ = 1; occ <= occurrences; ++occ, ++entry) {
            SCOPED_TRACE(site + "@" + std::to_string(occ));
            const std::string dir =
                freshDir("matrix_" + std::to_string(entry));
            db::saveCatalogDir(*baseCatalog(), dir);

            FaultSpec spec;
            spec.action = FaultSpec::Action::Crash;
            spec.on_hit = occ;
            injector.reset();
            injector.arm(site, spec);
            EXPECT_THROW(db::saveCatalogDir(*splicedCatalog(), dir),
                         InjectedCrash);
            injector.reset();

            // Whatever the simulated kill left behind, reopening
            // must produce a verified generation: the new one only
            // when the crash hit after the manifest's commit point.
            db::RecoveryReport report;
            uint64_t generation = verifyReopen(dir, &report);
            if (site == "catalog.manifest.dir_fsync")
                EXPECT_EQ(generation, 2u);
            else
                EXPECT_EQ(generation, 1u);
            EXPECT_EQ(report.generation, generation);

            // The report-enabled reopen garbage-collected the debris:
            // a second open is pristine, and no .tmp files remain.
            db::RecoveryReport clean;
            EXPECT_EQ(verifyReopen(dir, &clean), generation);
            EXPECT_FALSE(clean.recovered);
            EXPECT_TRUE(clean.events.empty());
            for (const auto &de : fs::directory_iterator(dir))
                EXPECT_NE(de.path().extension(), ".tmp")
                    << de.path();

            // And the interrupted publish can simply be retried.
            db::saveCatalogDir(*splicedCatalog(), dir);
            EXPECT_EQ(verifyReopen(dir, nullptr), 2u);
        }
    }
    EXPECT_GE(entry, 11u);
}

TEST(CrashMatrix, InjectedErrorsFailTheSaveButNeverTheStore)
{
    auto traced = traceCommitSites();
    FaultGuard guard;
    auto &injector = FaultInjector::instance();
    size_t entry = 0;
    for (const auto &[site, occurrences] : traced) {
        for (uint64_t occ = 1; occ <= occurrences; ++occ, ++entry) {
            SCOPED_TRACE(site + "@" + std::to_string(occ));
            const std::string dir =
                freshDir("errors_" + std::to_string(entry));
            db::saveCatalogDir(*baseCatalog(), dir);

            FaultSpec spec;
            spec.action = FaultSpec::Action::Error;
            spec.on_hit = occ;
            injector.reset();
            injector.arm(site, spec);
            // An injected I/O error is an IoError, never mistakable
            // for a simulated kill.
            try {
                db::saveCatalogDir(*splicedCatalog(), dir);
                // dir_fsync errors fire after the commit point; the
                // save may not throw only if nothing fired at all,
                // which the hit counter rules out below.
                ADD_FAILURE() << "save did not fail at " << site;
            } catch (const InjectedCrash &) {
                ADD_FAILURE() << "error spec threw InjectedCrash";
            } catch (const FatalError &) {
            }
            EXPECT_GE(injector.hits(site), occ);
            injector.reset();

            db::RecoveryReport report;
            uint64_t generation = verifyReopen(dir, &report);
            EXPECT_TRUE(generation == 1u || generation == 2u);
        }
    }
}

// ---------------------------------------------------------------------
// Corruption corpus: truncations and bit flips must yield structured
// errors or recovery, never a crash (run under ASan/UBSan in CI).
// ---------------------------------------------------------------------

TEST(CorruptionCorpus, EveryManifestTruncationIsRejected)
{
    FaultGuard guard;
    const std::string dir = freshDir("trunc_manifest");
    db::saveCatalogDir(*baseCatalog(), dir);
    const std::string manifest_path =
        dir + "/" + db::manifestFileName(1);
    const std::string golden = slurp(manifest_path);
    ASSERT_FALSE(golden.empty());

    for (size_t len = 0; len < golden.size(); ++len) {
        SCOPED_TRACE("length " + std::to_string(len));
        spill(manifest_path, std::string_view(golden).substr(0, len));
        // The sole generation's manifest is a strict prefix: every
        // load must throw a structured error (and never crash).
        EXPECT_THROW(db::loadCatalogDir(dir), FatalError);
    }
    spill(manifest_path, golden);
    EXPECT_EQ(verifyReopen(dir, nullptr), 1u);
}

TEST(CorruptionCorpus, TruncatedNewestManifestFallsBack)
{
    FaultGuard guard;
    const std::string dir = freshDir("trunc_fallback");
    db::saveCatalogDir(*baseCatalog(), dir);
    db::saveCatalogDir(*splicedCatalog(), dir);
    const std::string newest = dir + "/" + db::manifestFileName(2);
    const std::string golden = slurp(newest);

    for (size_t len = 0; len < golden.size();
         len += 7) {   // sampled: every truncation class, not byte
        SCOPED_TRACE("length " + std::to_string(len));
        spill(newest, std::string_view(golden).substr(0, len));
        // No report: recovery without garbage collection, so the
        // truncated manifest survives for the next iteration.
        auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap);
        EXPECT_EQ(loaded->generation(), 1u);
    }
    spill(newest, golden);
    EXPECT_EQ(verifyReopen(dir, nullptr), 2u);
}

TEST(CorruptionCorpus, ShardBitFlipsAreAlwaysDetected)
{
    FaultGuard guard;
    const std::string dir = freshDir("bitflip");
    db::saveCatalogDir(*baseCatalog(), dir);
    std::string shard_path;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.path().extension() == ".shard")
            shard_path = de.path().string();
    ASSERT_FALSE(shard_path.empty());
    const std::string golden = slurp(shard_path);

    for (size_t pos = 0; pos < golden.size();
         pos += 61) {   // sampled positions across the container
        SCOPED_TRACE("flip at " + std::to_string(pos));
        std::string bad = golden;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
        spill(shard_path, bad);
        // Hash verification catches any flip before shard parsing,
        // as a structured error.
        EXPECT_THROW(db::loadCatalogDir(dir), FatalError);
    }
    spill(shard_path, golden);
    EXPECT_EQ(verifyReopen(dir, nullptr), 1u);
}

TEST(CorruptionCorpus, TruncatedShardsAreAlwaysDetected)
{
    FaultGuard guard;
    const std::string dir = freshDir("trunc_shard");
    db::saveCatalogDir(*baseCatalog(), dir);
    std::string shard_path;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.path().extension() == ".shard")
            shard_path = de.path().string();
    ASSERT_FALSE(shard_path.empty());
    const std::string golden = slurp(shard_path);

    for (size_t len = 0; len < golden.size(); len += 97) {
        SCOPED_TRACE("length " + std::to_string(len));
        spill(shard_path, std::string_view(golden).substr(0, len));
        EXPECT_THROW(db::loadCatalogDir(dir), FatalError);
    }
    spill(shard_path, golden);
    EXPECT_EQ(verifyReopen(dir, nullptr), 1u);
}

TEST(CorruptionCorpus, EveryManifestByteFlipRecoversOrLoadsUnchanged)
{
    FaultGuard guard;
    const std::string dir = freshDir("flip_manifest");
    db::saveCatalogDir(*baseCatalog(), dir);
    db::saveCatalogDir(*splicedCatalog(), dir);
    // Every load below passes a report, so garbage collection may
    // remove what a flip made dead; each iteration restores all files.
    std::map<std::string, std::string> golden;
    for (const std::string &name : dirListing(dir))
        golden[name] = slurp(dir + "/" + name);
    const std::string newest = db::manifestFileName(2);

    for (size_t pos = 0; pos < golden.at(newest).size(); ++pos) {
        SCOPED_TRACE("flip at " + std::to_string(pos));
        for (const auto &[name, bytes] : golden)
            spill(dir + "/" + name, bytes);
        std::string bad = golden.at(newest);
        bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
        spill(dir + "/" + newest, bad);

        // A flip either breaks generation 2 (fall back to 1) or hits
        // bytes nobody reads (padding): then generation 2 loads as
        // written — never relabelled, never with other shards.
        db::RecoveryReport report;
        auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap, true,
                                         &report);
        if (loaded->generation() == 1u) {
            EXPECT_TRUE(report.recovered);
            EXPECT_EQ(report.rejected_generations,
                      std::vector<uint64_t>{2});
            continue;
        }
        EXPECT_EQ(loaded->generation(), 2u);
        EXPECT_FALSE(report.recovered);
        ASSERT_EQ(loaded->shards().size(),
                  splicedCatalog()->shards().size());
        for (size_t i = 0; i < loaded->shards().size(); ++i)
            EXPECT_EQ(loaded->shards()[i].hash,
                      splicedCatalog()->shards()[i].hash);
    }
}

TEST(CorruptionCorpus, HostileShardsLoadOrThrowStoreError)
{
    // The one shard reader with no hash check in front of it: every
    // truncation and three flips of every byte of a real shard must
    // either load — and then survive touching every record, the port
    // bound of every record and a search — or throw StoreError.
    // Nothing else, and no sanitizer report (CI runs this suite under
    // ASan/UBSan).
    FaultGuard guard;
    const std::string dir = freshDir("hostile_shard");
    db::saveCatalogDir(*baseCatalog(), dir);
    const db::ShardEntry &nhm = baseCatalog()->shards().front();
    const std::string golden = slurp(dir + "/" + nhm.file);
    const std::string path = dir + "/hostile.shard";

    const int num_ports =
        uarch::uarchInfo(uarch::UArch::Nehalem).num_ports;
    size_t loaded = 0, rejected = 0, touched = 0;
    auto attempt = [&](std::string_view bytes, const char *what,
                       size_t at) {
        spill(path, bytes);
        try {
            auto shard = db::loadShardMapped(mapFile(path),
                                             uarch::UArch::Nehalem);
            for (uint32_t row = 0;
                 row < static_cast<uint32_t>(shard->numRecords());
                 ++row) {
                db::RecordView rec = shard->record(row);
                uarch::PortUsage usage = rec.portUsage();
                touched += rec.name().size() +
                           static_cast<size_t>(usage.totalUops()) +
                           rec.latencies().size();
                // A port set that loads is one portLoad accepts.
                touched += static_cast<size_t>(
                    uarch::portLoad(usage, num_ports).bottleneck);
            }
            db::Query query;
            query.uses_ports = uarch::portMask({0});
            query.lat_max = 8;
            touched += shard->search(query).size();
            ++loaded;
        } catch (const db::StoreError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << " at " << at << ": " << e.what();
        }
    };
    for (size_t len = 0; len < golden.size(); ++len)
        attempt(std::string_view(golden).substr(0, len), "truncation",
                len);
    for (size_t pos = 0; pos < golden.size(); ++pos)
        for (unsigned mask : {0x01u, 0x20u, 0x80u}) {
            std::string bad = golden;
            bad[pos] = static_cast<char>(
                static_cast<unsigned char>(bad[pos]) ^ mask);
            attempt(bad, "flip", pos);
        }
    EXPECT_EQ(loaded + rejected, golden.size() * 4);
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(touched, 0u);
}

/** A one-record Nehalem shard: NOT_R64 on the port set @p ports. */
std::string
notShardBytes(const std::string &ports)
{
    isa::ResultsDoc doc = isa::parseResultsXml(
        "<uopsInfo architecture=\"NHM\">"
        "<instruction name=\"NOT_R64\" mnemonic=\"NOT\">"
        "<ports usage=\"1*" + ports + "\" uops=\"1\"/>"
        "<throughput measured=\"0.33\"/>"
        "</instruction></uopsInfo>");
    return db::shardBytes(
        *db::DatabaseCatalog::shardsFromResults(doc, nullptr)[0].db);
}

TEST(CorruptionCorpus, ShardPortSetsOutsideTheUArchAreRejected)
{
    // Two shards that differ only in one port set (p015 vs p01). The
    // last byte where they differ is that entry's pu_mask, the column
    // written after the record's port union.
    FaultGuard guard;
    const std::string dir = freshDir("foreign_port_shard");
    fs::create_directories(dir);
    const std::string path = dir + "/nhm.shard";
    std::string bytes = notShardBytes("p015");
    const std::string other = notShardBytes("p01");
    ASSERT_EQ(bytes.size(), other.size());
    size_t at = bytes.size();
    for (size_t i = 0; i < bytes.size(); ++i)
        if (bytes[i] != other[i])
            at = i;
    ASSERT_LT(at, bytes.size());
    ASSERT_EQ(bytes[at], 0x23); // p015

    auto load = [&](std::string_view shard) {
        spill(path, shard);
        return db::loadShardMapped(mapFile(path), uarch::UArch::Nehalem);
    };
    EXPECT_EQ(load(bytes)->record(0).portUsage().toString(), "1*p015");
    // Bit 7 names port 7, which Nehalem lacks; an empty set names none.
    for (char mask : {static_cast<char>(0x23 | 0x80), '\0'}) {
        bytes[at] = mask;
        EXPECT_THROW(load(bytes), db::StoreError)
            << "mask " << static_cast<int>(static_cast<uint8_t>(mask));
    }
}

// ---------------------------------------------------------------------
// Recovery reporting and garbage collection.
// ---------------------------------------------------------------------

/** Corrupt the stored hash of generation 2's manifest: it still
 *  parses, but shard verification must reject it. */
void
corruptNewestManifest(const std::string &dir)
{
    const std::string path = dir + "/" + db::manifestFileName(2);
    std::string bytes = slurp(path);
    // Offset 40: the first shard record's content hash (24-byte
    // header, then arch + record count, 8 bytes each).
    ASSERT_GT(bytes.size(), 48u);
    bytes[40] = static_cast<char>(bytes[40] ^ 0xff);
    spill(path, bytes);
}

TEST(Recovery, ReaderWithoutReportNeverDeletes)
{
    FaultGuard guard;
    const std::string dir = freshDir("no_gc");
    db::saveCatalogDir(*baseCatalog(), dir);
    db::saveCatalogDir(*splicedCatalog(), dir);
    corruptNewestManifest(dir);
    spill(dir + "/stray.shard.tmp", "half a write");

    const std::set<std::string> before = dirListing(dir);

    // A report-less load recovers (falls back to generation 1) but
    // must not remove a single file — it could be racing a publisher
    // whose commit is mid-flight, not crashed.
    auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap);
    EXPECT_EQ(loaded->generation(), 1u);

    EXPECT_EQ(dirListing(dir), before);
}

TEST(Recovery, ReportEnablesGarbageCollection)
{
    FaultGuard guard;
    const std::string dir = freshDir("gc");
    db::saveCatalogDir(*baseCatalog(), dir);
    db::saveCatalogDir(*splicedCatalog(), dir);
    corruptNewestManifest(dir);
    spill(dir + "/stray.shard.tmp", "half a write");
    spill(dir + "/ZZZ-deadbeef.shard", "not referenced by anyone");

    db::RecoveryReport report;
    auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap, true,
                                     &report);
    EXPECT_EQ(loaded->generation(), 1u);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.generation, 1u);
    ASSERT_EQ(report.rejected_generations.size(), 1u);
    EXPECT_EQ(report.rejected_generations[0], 2u);
    EXPECT_FALSE(report.events.empty());
    EXPECT_NE(report.summary().find("recovered to generation 1"),
              std::string::npos);

    std::set<std::string> removed(report.removed_files.begin(),
                                  report.removed_files.end());
    EXPECT_TRUE(removed.count(db::manifestFileName(2)));
    EXPECT_TRUE(removed.count("stray.shard.tmp"));
    EXPECT_TRUE(removed.count("ZZZ-deadbeef.shard"));
    // The generation-2-only shard lost its last referencing manifest.
    size_t shard_gc = 0;
    for (const std::string &name : removed)
        if (name.size() > 6 && name.compare(0, 4, "SKL-") == 0)
            ++shard_gc;
    EXPECT_EQ(shard_gc, 1u);

    // After collection the store is pristine generation 1, and the
    // publish can be retried from scratch.
    db::RecoveryReport clean;
    EXPECT_EQ(verifyReopen(dir, &clean), 1u);
    EXPECT_FALSE(clean.recovered);
    EXPECT_TRUE(clean.removed_files.empty());
    db::saveCatalogDir(*splicedCatalog(), dir);
    EXPECT_EQ(verifyReopen(dir, nullptr), 2u);
}

TEST(Recovery, TransientIoErrorNeverDeletes)
{
    // An open, mmap or read failure says nothing about the bytes on
    // disk: it rejects the candidate for this load only, even when a
    // report enables garbage collection.
    for (const char *site : {"mmap.open", "catalog.manifest.read"}) {
        SCOPED_TRACE(site);
        FaultGuard guard;
        const std::string dir =
            freshDir(std::string("transient_") + site);
        db::saveCatalogDir(*baseCatalog(), dir);
        db::saveCatalogDir(*splicedCatalog(), dir);
        const std::set<std::string> before = dirListing(dir);

        FaultSpec spec;
        spec.action = FaultSpec::Action::Error;
        FaultInjector::instance().arm(site, spec);
        db::RecoveryReport report;
        auto loaded = db::loadCatalogDir(dir, db::LoadMode::Mmap, true,
                                         &report);
        FaultInjector::instance().reset();
        EXPECT_EQ(loaded->generation(), 1u);
        EXPECT_TRUE(report.recovered);
        EXPECT_EQ(report.rejected_generations,
                  std::vector<uint64_t>{2});
        EXPECT_TRUE(report.removed_files.empty());
        EXPECT_EQ(dirListing(dir), before);

        // The fault has passed: the next open serves generation 2.
        db::RecoveryReport clean;
        EXPECT_EQ(verifyReopen(dir, &clean), 2u);
        EXPECT_FALSE(clean.recovered);
    }
}

TEST(Recovery, AllGenerationsBadIsAStructuredError)
{
    FaultGuard guard;
    const std::string dir = freshDir("all_bad");
    db::saveCatalogDir(*baseCatalog(), dir);
    const std::string manifest_path =
        dir + "/" + db::manifestFileName(1);
    spill(manifest_path, "UOPSMF\x1a\n garbage");

    try {
        db::loadCatalogDir(dir, db::LoadMode::Mmap);
        FAIL() << "expected CatalogError";
    } catch (const db::CatalogError &e) {
        // The error names the directory and carries the per-candidate
        // rejection trail.
        EXPECT_NE(std::string(e.what()).find("no loadable generation"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("rejected"),
                  std::string::npos);
    }
}

TEST(Recovery, MissingShardFallsBackAndReports)
{
    FaultGuard guard;
    const std::string dir = freshDir("missing_shard");
    db::saveCatalogDir(*baseCatalog(), dir);
    db::saveCatalogDir(*splicedCatalog(), dir);
    // Delete the generation-2-only shard out from under its manifest.
    std::vector<std::string> skl_shards;
    for (const auto &de : fs::directory_iterator(dir)) {
        const std::string name = de.path().filename().string();
        if (name.compare(0, 4, "SKL-") == 0)
            skl_shards.push_back(de.path().string());
    }
    ASSERT_FALSE(skl_shards.empty());
    for (const std::string &path : skl_shards)
        ASSERT_TRUE(removeFile(path));

    db::RecoveryReport report;
    EXPECT_EQ(verifyReopen(dir, &report), 1u);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.rejected_generations,
              std::vector<uint64_t>{2});
}

TEST(Recovery, ManifestRetentionKeepsRecentFallbacks)
{
    FaultGuard guard;
    const std::string dir = freshDir("retention");
    // Publish generations 1..7 with identical content (renumbered
    // copies of the base shards); only the newest few manifests may
    // survive as recovery fallbacks.
    db::saveCatalogDir(*baseCatalog(), dir);
    for (uint64_t gen = 2; gen <= 7; ++gen) {
        std::vector<db::ShardEntry> shards = baseCatalog()->shards();
        db::DatabaseCatalog renumbered(std::move(shards), gen);
        db::saveCatalogDir(renumbered, dir);
    }

    size_t manifests = 0;
    uint64_t newest = 0;
    for (const auto &de : fs::directory_iterator(dir)) {
        const std::string name = de.path().filename().string();
        if (name.compare(0, 9, "manifest.") == 0) {
            ++manifests;
            newest = std::max(
                newest,
                static_cast<uint64_t>(std::stoull(name.substr(9))));
        }
    }
    EXPECT_EQ(manifests, 4u);   // retention window
    EXPECT_EQ(newest, 7u);
    EXPECT_EQ(db::readCatalogGeneration(dir).value_or(0), 7u);
    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->generation(), 7u);
    EXPECT_EQ(loaded->numRecords(), baseCatalog()->numRecords());
}

} // namespace
} // namespace uops::test
