/**
 * @file
 * Tests for the instruction-performance database (src/db): the
 * golden round-trip property (characterize → XML export → XML ingest
 * → snapshot save → snapshot load must be bit-identical to the
 * in-memory ingest path), columnar queries, snapshot validation,
 * snapshot-identical answers under concurrent readers, and the
 * sharded catalog engine (golden shard round-trip through the mapped
 * loader, incremental-sweep splicing bit-identical to a full sweep,
 * lossless v2 → v3 migration, and corrupt-store rejection).
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "isa/results_xml.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

/** Same diverse slice as batch_test: GPR ALU, zero idiom, SSE, AVX,
 *  divider, memory — small enough to characterize in milliseconds. */
bool
sliceFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR" || m == "PXOR" || m == "DIV" ||
           m == "MOVAPS" || m == "VPXOR" || m == "IMUL";
}

const std::vector<uarch::UArch> kArches = {uarch::UArch::Nehalem,
                                           uarch::UArch::Skylake};

/** One shared characterization run for the whole suite. */
const core::CharacterizationReport &
sliceReport()
{
    static const core::CharacterizationReport report = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = sliceFilter;
        return core::runBatchSweep(defaultDb(), kArches, options);
    }();
    return report;
}

/** Database built through the in-memory ingest path. */
const db::InstructionDatabase &
sliceDb()
{
    // Built in place: InstructionDatabase is neither copyable nor
    // movable (its indexes hold views into the string pool).
    static const db::InstructionDatabase *database = [] {
        auto *built = new db::InstructionDatabase();
        built->ingest(sliceReport());
        return built;
    }();
    return *database;
}

// ---------------------------------------------------------------------
// The golden round-trip (acceptance criterion).
// ---------------------------------------------------------------------

TEST(DbRoundTrip, XmlIngestIsBitIdenticalToInMemoryIngest)
{
    // characterize → XML export → XML ingest ...
    std::string xml_text = sliceReport().toXmlString();
    isa::ResultsDoc doc = isa::parseResultsXml(xml_text);
    db::InstructionDatabase from_xml;
    from_xml.ingestResults(doc, &defaultDb());

    // ... must match the in-memory ingest bit for bit.
    EXPECT_EQ(db::snapshotBytes(sliceDb()),
              db::snapshotBytes(from_xml));
}

TEST(DbRoundTrip, SnapshotSaveLoadIsBitExact)
{
    std::string bytes = db::snapshotBytes(sliceDb());
    auto loaded = db::loadSnapshotBytes(bytes);
    // save(load(save(db))) == save(db)
    EXPECT_EQ(db::snapshotBytes(*loaded), bytes);
    EXPECT_EQ(loaded->numRecords(), sliceDb().numRecords());
}

TEST(DbRoundTrip, FullPipelineGolden)
{
    // The complete chain of the acceptance criterion in one line per
    // stage: characterize → XML → ingest → save → load, then compare
    // query answers (not just bytes) against the in-memory path.
    auto doc = isa::parseResultsXml(sliceReport().toXmlString());
    db::InstructionDatabase from_xml;
    from_xml.ingestResults(doc, &defaultDb());
    auto loaded = db::loadSnapshotBytes(db::snapshotBytes(from_xml));

    const db::InstructionDatabase &direct = sliceDb();
    ASSERT_EQ(loaded->numRecords(), direct.numRecords());
    for (uint32_t row = 0;
         row < static_cast<uint32_t>(direct.numRecords()); ++row) {
        db::RecordView a = direct.record(row);
        db::RecordView b = loaded->record(row);
        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.arch(), b.arch());
        EXPECT_EQ(a.extension(), b.extension());
        EXPECT_TRUE(a.portUsage() == b.portUsage());
        EXPECT_EQ(a.uopCount(), b.uopCount());
        EXPECT_EQ(a.maxLatency(), b.maxLatency());
        // Bit-identical doubles, not approximately equal.
        EXPECT_EQ(a.tpMeasured(), b.tpMeasured());
        EXPECT_EQ(a.tpWithBreakers(), b.tpWithBreakers());
        EXPECT_EQ(a.tpSlow(), b.tpSlow());
        EXPECT_EQ(a.tpFromPorts(), b.tpFromPorts());
        EXPECT_EQ(a.sameRegCycles(), b.sameRegCycles());
        EXPECT_EQ(a.storeRoundTrip(), b.storeRoundTrip());
        auto lats_a = a.latencies();
        auto lats_b = b.latencies();
        ASSERT_EQ(lats_a.size(), lats_b.size());
        for (size_t i = 0; i < lats_a.size(); ++i) {
            EXPECT_EQ(lats_a[i].src_op, lats_b[i].src_op);
            EXPECT_EQ(lats_a[i].dst_op, lats_b[i].dst_op);
            EXPECT_EQ(lats_a[i].cycles, lats_b[i].cycles);
            EXPECT_EQ(lats_a[i].upper_bound, lats_b[i].upper_bound);
            EXPECT_EQ(lats_a[i].slow_cycles, lats_b[i].slow_cycles);
        }
    }
}

TEST(DbRoundTrip, StreamingSweepIngestIsBitIdenticalToAllPaths)
{
    // Direct sweep -> shards: records stream into per-uarch shard
    // databases while the sweep runs, with no XML tree and
    // (keep_results = false) no retained per-variant results. Every
    // shard must be byte-identical to the same uarch split out of
    // both the in-memory ingest of a full report and the
    // XML-materializing path — with integer Cycles columns that is
    // plain memcmp equality, no text canonicalization anywhere.
    core::BatchOptions options;
    options.num_threads = 4;
    options.characterizer.filter = sliceFilter;
    db::CatalogSweepIngestor ingestor;
    options.sink = &ingestor;
    options.keep_results = false;
    auto report = core::runBatchSweep(defaultDb(), kArches, options);

    EXPECT_EQ(ingestor.numIngested(), report.numSucceeded());
    // keep_results=false: outcome status is retained, results are not.
    for (const auto &ureport : report.uarches)
        for (const auto &outcome : ureport.outcomes) {
            EXPECT_TRUE(outcome.ok) << outcome.error;
            EXPECT_EQ(outcome.result.variant, nullptr);
        }
    // The cleared report stays safe to repackage: toSet() skips the
    // released slots instead of dereferencing their null variants.
    EXPECT_TRUE(report.uarches[0].toSet().instrs.empty());
    EXPECT_NE(report.toXmlString().find("<uopsBatch"),
              std::string::npos);

    db::DatabaseCatalog streamed(ingestor.takeShards(), 1);
    db::InstructionDatabase from_xml;
    from_xml.ingestResults(
        isa::parseResultsXml(sliceReport().toXmlString()),
        &defaultDb());
    const db::InstructionDatabase &xml_db = from_xml;
    for (const db::InstructionDatabase *mono : {&sliceDb(), &xml_db}) {
        auto split = db::DatabaseCatalog::fromMonolith(*mono, 1);
        ASSERT_EQ(streamed.shards().size(), split->shards().size());
        for (size_t i = 0; i < split->shards().size(); ++i) {
            const db::ShardEntry &got = streamed.shards()[i];
            const db::ShardEntry &want = split->shards()[i];
            EXPECT_EQ(got.arch, want.arch);
            EXPECT_EQ(db::shardBytes(*got.db, got.arch),
                      db::shardBytes(*want.db, want.arch));
        }
    }
}

TEST(DbRoundTrip, CyclesRoundingIsIdempotent)
{
    // The canonical representation absorbs re-rounding: converting a
    // Cycles back to double and rounding again is the identity.
    for (double x : {0.25, 0.33333, 1.0, 1.332, 3.99, 42.0, 88.5}) {
        Cycles canon = Cycles::round(x);
        EXPECT_EQ(canon, Cycles::round(canon.toDouble()));
    }
}

TEST(DbRoundTrip, IngestRejectsPortsTheUArchLacks)
{
    // A foreign results XML is untrusted: a port set outside the
    // record's uarch (Nehalem has ports 0-5) or an empty one must stop
    // the ingest, naming the record and the port.
    auto ingest = [](const std::string &usage) {
        isa::ResultsDoc doc = isa::parseResultsXml(
            "<uopsInfo architecture=\"NHM\">"
            "<instruction name=\"NOT_R64\" mnemonic=\"NOT\">"
            "<ports usage=\"" + usage + "\" uops=\"1\"/>"
            "<throughput measured=\"0.33\"/>"
            "</instruction></uopsInfo>");
        db::InstructionDatabase database;
        database.ingestResults(doc, nullptr);
    };
    EXPECT_NO_THROW(ingest("1*p015"));
    try {
        ingest("1*p07");
        ADD_FAILURE() << "1*p07 ingested on NHM";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("NHM/NOT_R64 uses port 7"),
                  std::string::npos)
            << e.what();
    }
    try {
        ingest("1*p");
        ADD_FAILURE() << "1*p ingested on NHM";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "NHM/NOT_R64 has an empty port set"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Results-XML parsing.
// ---------------------------------------------------------------------

TEST(ResultsXml, ParsesSingleUArchRoot)
{
    auto set = sliceReport().uarches[1].toSet();
    std::string xml = core::exportResultsXml(set)->toString();
    isa::ResultsDoc doc = isa::parseResultsXml(xml);
    ASSERT_EQ(doc.uarches.size(), 1u);
    EXPECT_EQ(doc.uarches[0].architecture, "SKL");
    EXPECT_EQ(doc.uarches[0].instrs.size(), set.instrs.size());
}

TEST(ResultsXml, CapturesErrorsFromBatchReports)
{
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = sliceFilter;
    options.on_variant_done = [](uarch::UArch,
                                 const isa::InstrVariant &v, bool) {
        if (v.mnemonic() == "PXOR")
            throw std::runtime_error("injected");
    };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);
    isa::ResultsDoc doc = isa::parseResultsXml(report.toXmlString());
    size_t errors = 0;
    for (const auto &ua : doc.uarches)
        errors += ua.errors.size();
    EXPECT_EQ(errors, report.numFailed());
    EXPECT_GT(errors, 0u);
}

TEST(ResultsXml, RejectsForeignRoots)
{
    EXPECT_THROW(isa::parseResultsXml("<wrong/>"), FatalError);
}

TEST(ResultsXml, PortUsageStringRoundTrips)
{
    // Canonical strings are sorted by port mask (PortUsage::add),
    // exactly as the XML export renders them.
    for (const char *text : {"-", "1*p0", "1*p23+3*p015",
                             "1*p23+1*p4+2*p0156"}) {
        uarch::PortUsage usage = uarch::PortUsage::fromString(text);
        EXPECT_EQ(usage.toString(), text);
    }
    EXPECT_THROW(uarch::PortUsage::fromString("nonsense"), FatalError);
    EXPECT_THROW(uarch::PortUsage::fromString("x*p0"), FatalError);
}

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

TEST(DbQuery, PointLookup)
{
    const db::InstructionDatabase &database = sliceDb();
    auto row = database.find(uarch::UArch::Skylake, "ADD_R64_R64");
    ASSERT_TRUE(row.has_value());
    db::RecordView rec = database.record(*row);
    EXPECT_EQ(rec.name(), "ADD_R64_R64");
    EXPECT_EQ(rec.mnemonic(), "ADD");
    EXPECT_EQ(rec.arch(), uarch::UArch::Skylake);
    EXPECT_GT(rec.uopCount(), 0);
    EXPECT_GT(rec.tpMeasured().hundredths(), 0);

    EXPECT_FALSE(
        database.find(uarch::UArch::Skylake, "NO_SUCH_VARIANT"));
    // Present on both uarches.
    EXPECT_EQ(database.findByName("ADD_R64_R64").size(), 2u);
}

TEST(DbQuery, MnemonicAndExtensionIndexes)
{
    const db::InstructionDatabase &database = sliceDb();
    db::Query query;
    query.mnemonic = "ADD";
    auto rows = database.search(query);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows)
        EXPECT_EQ(database.record(row).mnemonic(), "ADD");

    db::Query by_ext;
    by_ext.extension = "AVX";
    by_ext.arch = uarch::UArch::Skylake;
    auto avx_rows = database.search(by_ext);
    ASSERT_FALSE(avx_rows.empty());
    for (uint32_t row : avx_rows)
        EXPECT_EQ(database.record(row).extension(), "AVX");

    // AVX doesn't exist on Nehalem.
    by_ext.arch = uarch::UArch::Nehalem;
    EXPECT_TRUE(database.search(by_ext).empty());
}

TEST(DbQuery, PortMaskSupersetScan)
{
    const db::InstructionDatabase &database = sliceDb();
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.uses_ports = uarch::portMask({0, 5});
    auto rows = database.search(query);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows) {
        uarch::PortMask mask = database.record(row).portUnion();
        EXPECT_EQ(mask & query.uses_ports, query.uses_ports)
            << std::string(database.record(row).name());
    }
    // Sanity: the filter excludes something (e.g. pure p23 loads).
    db::Query all;
    all.arch = uarch::UArch::Skylake;
    EXPECT_LT(rows.size(), database.search(all).size());
}

TEST(DbQuery, ThroughputAndLatencyRanges)
{
    const db::InstructionDatabase &database = sliceDb();
    db::Query query;
    query.tp_min = db::tpBoundMin(0.9);
    query.tp_max = db::tpBoundMax(30.0);
    auto rows = database.search(query);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows) {
        double tp = database.record(row).tpMeasured().toDouble();
        EXPECT_GE(tp, 0.9);
        EXPECT_LE(tp, 30.0);
    }

    db::Query lat_query;
    lat_query.lat_min = 10;   // dividers
    auto lat_rows = database.search(lat_query);
    ASSERT_FALSE(lat_rows.empty());
    for (uint32_t row : lat_rows)
        EXPECT_GE(database.record(row).maxLatency(), 10);
}

TEST(DbQuery, LimitAndCombinedPredicates)
{
    const db::InstructionDatabase &database = sliceDb();
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.limit = 3;
    EXPECT_EQ(database.search(query).size(), 3u);

    db::Query combined;
    combined.mnemonic = "DIV";
    combined.arch = uarch::UArch::Skylake;
    combined.lat_min = 2;
    auto rows = database.search(combined);
    for (uint32_t row : rows) {
        EXPECT_EQ(database.record(row).mnemonic(), "DIV");
        EXPECT_GE(database.record(row).maxLatency(), 2);
    }
}

TEST(DbQuery, CrossUArchDiff)
{
    const db::InstructionDatabase &database = sliceDb();
    db::DiffResult diff =
        database.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    EXPECT_GT(diff.common, 0u);
    // AVX variants exist only on Skylake.
    EXPECT_FALSE(diff.only_b.empty());
    EXPECT_TRUE(diff.only_a.empty());
    for (const db::DiffEntry &entry : diff.changed) {
        EXPECT_TRUE(entry.tp_differs || entry.ports_differ ||
                    entry.latency_differs);
        EXPECT_EQ(database.record(entry.row_a).name(),
                  database.record(entry.row_b).name());
    }
    // Diff against self reports nothing.
    db::DiffResult self =
        database.diff(uarch::UArch::Skylake, uarch::UArch::Skylake);
    EXPECT_TRUE(self.changed.empty());
    EXPECT_TRUE(self.only_a.empty());
    EXPECT_TRUE(self.only_b.empty());
}

TEST(DbQuery, UArchEnumeration)
{
    const db::InstructionDatabase &database = sliceDb();
    auto arches = database.uarches();
    ASSERT_EQ(arches.size(), 2u);
    EXPECT_EQ(arches[0], uarch::UArch::Nehalem);
    EXPECT_EQ(arches[1], uarch::UArch::Skylake);
    EXPECT_EQ(database.numRecords(uarch::UArch::Nehalem) +
                  database.numRecords(uarch::UArch::Skylake),
              database.numRecords());
}

TEST(DbQuery, ToCharacterizationSetResolvesVariants)
{
    const db::InstructionDatabase &database = sliceDb();
    auto set = database.toCharacterizationSet(uarch::UArch::Skylake,
                                              defaultDb());
    EXPECT_EQ(set.instrs.size(),
              database.numRecords(uarch::UArch::Skylake));
    const auto *c = set.find("ADD_R64_R64");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->variant, defaultDb().byName("ADD_R64_R64"));
    EXPECT_FALSE(c->latency.pairs.empty());
    EXPECT_GT(c->ports.usage.totalUops(), 0);
}

// ---------------------------------------------------------------------
// Snapshot validation.
// ---------------------------------------------------------------------

TEST(DbSnapshot, RejectsCorruptInput)
{
    std::string bytes = db::snapshotBytes(sliceDb());

    EXPECT_THROW(db::loadSnapshotBytes(""), FatalError);
    EXPECT_THROW(
        db::loadSnapshotBytes(bytes.substr(0, bytes.size() / 2)),
        FatalError);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW(db::loadSnapshotBytes(bad_magic), FatalError);

    std::string bad_version = bytes;
    bad_version[8] = char(0x7f);
    EXPECT_THROW(db::loadSnapshotBytes(bad_version), FatalError);

    // A corrupt array-length prefix (first array starts after the
    // 24-byte header) must be a FatalError before anything is bound:
    // 16M declared elements exceed the remaining buffer bytes but pass
    // the implausible-size cap, so this exercises the remaining-bytes
    // bound specifically.
    std::string length_bomb = bytes;
    length_bomb[24] = char(0xff);
    length_bomb[25] = char(0xff);
    length_bomb[26] = char(0xff);
    for (size_t i = 3; i < 8; ++i)
        length_bomb[24 + i] = 0;
    EXPECT_THROW(db::loadSnapshotBytes(length_bomb), FatalError);
}

TEST(DbSnapshot, IngestAfterLoadStaysBitIdentical)
{
    // Loading a snapshot re-interns the string pool, so ingesting
    // more uarches on top of a loaded database must produce the same
    // bytes as ingesting everything in memory.
    db::InstructionDatabase direct;
    direct.ingest(sliceReport().uarches[0].toSet());
    direct.ingest(sliceReport().uarches[1].toSet());

    db::InstructionDatabase first;
    first.ingest(sliceReport().uarches[0].toSet());
    auto resumed = db::loadSnapshotBytes(db::snapshotBytes(first));
    resumed->ingest(sliceReport().uarches[1].toSet());

    EXPECT_EQ(db::snapshotBytes(direct), db::snapshotBytes(*resumed));
}

TEST(DbSnapshot, DuplicateIngestIsRejected)
{
    db::InstructionDatabase database;
    database.ingest(sliceReport().uarches[0].toSet());
    EXPECT_THROW(database.ingest(sliceReport().uarches[0].toSet()),
                 FatalError);
}

// ---------------------------------------------------------------------
// Concurrent readers (satellite: snapshot-identical responses).
// ---------------------------------------------------------------------

TEST(DbConcurrency, ParallelReadersSeeIdenticalAnswers)
{
    const db::InstructionDatabase &database = sliceDb();

    // Baseline answers, computed single-threaded.
    db::Query by_ports;
    by_ports.uses_ports = uarch::portMask({0});
    const auto baseline_ports = database.search(by_ports);
    db::Query by_mnemonic;
    by_mnemonic.mnemonic = "ADD";
    const auto baseline_add = database.search(by_mnemonic);
    const auto baseline_diff =
        database.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    const auto baseline_row =
        database.find(uarch::UArch::Skylake, "ADD_R64_R64");
    ASSERT_TRUE(baseline_row.has_value());
    const Cycles baseline_tp =
        database.record(*baseline_row).tpMeasured();

    std::atomic<size_t> mismatches{0};
    ThreadPool pool(8);
    pool.parallelFor(400, [&](size_t i, size_t) {
        switch (i % 4) {
          case 0: {
            if (database.search(by_ports) != baseline_ports)
                ++mismatches;
            break;
          }
          case 1: {
            if (database.search(by_mnemonic) != baseline_add)
                ++mismatches;
            break;
          }
          case 2: {
            auto diff = database.diff(uarch::UArch::Nehalem,
                                      uarch::UArch::Skylake);
            if (diff.common != baseline_diff.common ||
                diff.changed.size() != baseline_diff.changed.size())
                ++mismatches;
            break;
          }
          case 3: {
            auto row =
                database.find(uarch::UArch::Skylake, "ADD_R64_R64");
            if (!row ||
                database.record(*row).tpMeasured() != baseline_tp)
                ++mismatches;
            break;
          }
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------
// The sharded catalog engine.
// ---------------------------------------------------------------------

/** Fresh, empty temp directory for one test. */
std::string
freshDir(const std::string &name)
{
    auto path = std::filesystem::temp_directory_path() /
                ("uops_db_test_" + name);
    std::filesystem::remove_all(path);
    return path.string();
}

/** Catalog built by the sharded streaming sweep (same slice). */
std::shared_ptr<const db::DatabaseCatalog>
sweepCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = sliceFilter;
        options.keep_results = false;
        return db::runCatalogSweep(defaultDb(), kArches, options,
                                   nullptr);
    }();
    return catalog;
}

TEST(Catalog, ShardedSweepMatchesMonolithSplit)
{
    // The two construction paths — streaming per-uarch sweep ingest
    // and splitting a monolithic database — must produce the same
    // shard bytes, or migration and incremental sweeps could not be
    // compared by hash.
    auto split = db::DatabaseCatalog::fromMonolith(sliceDb(), 1);
    ASSERT_EQ(split->shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < split->shards().size(); ++i) {
        const db::ShardEntry &a = split->shards()[i];
        const db::ShardEntry &b = sweepCatalog()->shards()[i];
        EXPECT_EQ(a.arch, b.arch);
        EXPECT_EQ(db::shardBytes(*a.db, a.arch),
                  db::shardBytes(*b.db, b.arch));
        EXPECT_EQ(a.hash, b.hash);
        EXPECT_EQ(a.file, b.file);
    }
}

TEST(Catalog, GoldenShardRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    db::saveCatalogDir(*sweepCatalog(), dir);

    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->generation(), sweepCatalog()->generation());
    ASSERT_EQ(loaded->shards().size(), sweepCatalog()->shards().size());
    for (size_t i = 0; i < loaded->shards().size(); ++i) {
        const db::ShardEntry &got = loaded->shards()[i];
        const db::ShardEntry &want = sweepCatalog()->shards()[i];
        EXPECT_EQ(got.arch, want.arch);
        EXPECT_EQ(got.records, want.records);
        EXPECT_EQ(got.hash, want.hash);
        // Loaded shards re-serialize to the exact bytes saved.
        EXPECT_EQ(db::shardBytes(*got.db, got.arch),
                  db::shardBytes(*want.db, want.arch));
    }

    // Query answers match the in-memory catalog.
    auto view = loaded->find(uarch::UArch::Skylake, "ADD_R64_R64");
    ASSERT_TRUE(view.has_value());
    auto want_view =
        sweepCatalog()->find(uarch::UArch::Skylake, "ADD_R64_R64");
    EXPECT_EQ(view->tpMeasured(), want_view->tpMeasured());
    db::Query query;
    query.uses_ports = uarch::portMask({0});
    EXPECT_EQ(loaded->search(query).size(),
              sweepCatalog()->search(query).size());
}

TEST(Catalog, IncrementalSpliceEqualsFullSweep)
{
    // Acceptance criterion: re-sweeping one uarch into an existing
    // catalog must reproduce the full fresh sweep bit for bit,
    // per-shard hash-checked.
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = sliceFilter;

    auto base = db::runCatalogSweep(
        defaultDb(), {uarch::UArch::Nehalem}, options, nullptr);
    EXPECT_EQ(base->generation(), 1u);

    auto spliced = db::runCatalogSweep(defaultDb(),
                                       {uarch::UArch::Skylake},
                                       options, base.get());
    EXPECT_EQ(spliced->generation(), 2u);

    ASSERT_EQ(spliced->shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < spliced->shards().size(); ++i) {
        const db::ShardEntry &got = spliced->shards()[i];
        const db::ShardEntry &want = sweepCatalog()->shards()[i];
        EXPECT_EQ(got.arch, want.arch);
        EXPECT_EQ(got.hash, want.hash)
            << uarch::uarchShortName(got.arch);
        EXPECT_EQ(db::shardBytes(*got.db, got.arch),
                  db::shardBytes(*want.db, want.arch));
    }
    // The untouched shard is shared with the base, not copied.
    EXPECT_EQ(spliced->shard(uarch::UArch::Nehalem),
              base->shard(uarch::UArch::Nehalem));

    // On disk: saving base then splicing writes only the fresh
    // shard; the directory ends up with the same shard files as a
    // full-sweep save.
    const std::string dir_full = freshDir("splice_full");
    const std::string dir_incr = freshDir("splice_incr");
    db::saveCatalogDir(*sweepCatalog(), dir_full);
    db::saveCatalogDir(*base, dir_incr);
    db::saveCatalogDir(*spliced, dir_incr);
    for (const db::ShardEntry &entry : sweepCatalog()->shards()) {
        std::ifstream a(dir_full + "/" + entry.file,
                        std::ios::binary);
        std::ifstream b(dir_incr + "/" + entry.file,
                        std::ios::binary);
        ASSERT_TRUE(a && b) << entry.file;
        std::stringstream bytes_a, bytes_b;
        bytes_a << a.rdbuf();
        bytes_b << b.rdbuf();
        EXPECT_EQ(bytes_a.str(), bytes_b.str()) << entry.file;
        EXPECT_EQ(fnv1a64(bytes_a.str()), entry.hash);
    }
    EXPECT_EQ(db::loadCatalogDir(dir_incr)->generation(), 2u);
}

TEST(Catalog, MigrateV2SnapshotIsLossless)
{
    // A legacy monolith converts to a shard set whose bytes equal a
    // fresh sharded sweep of the same results (v1 stays refused by
    // the loader underneath).
    const std::string snap =
        freshDir("migrate_src") + "_v2.snap";
    db::saveSnapshotFile(sliceDb(), snap);

    const std::string dir = freshDir("migrate_out");
    db::migrateSnapshot(snap, dir);
    auto migrated = db::loadCatalogDir(dir);
    EXPECT_EQ(migrated->generation(), 1u);
    ASSERT_EQ(migrated->shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < migrated->shards().size(); ++i)
        EXPECT_EQ(migrated->shards()[i].hash,
                  sweepCatalog()->shards()[i].hash);

    // The legacy file itself is not a catalog: migration is the only
    // way in, and the refusal says so.
    try {
        db::loadCatalogDir(snap);
        FAIL() << "a v2 snapshot file loaded as a catalog";
    } catch (const db::CatalogError &e) {
        EXPECT_NE(std::string(e.what()).find("uopsq migrate"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Catalog, QueriesMatchMonolith)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    const db::InstructionDatabase &mono = sliceDb();

    EXPECT_EQ(catalog.numRecords(), mono.numRecords());
    EXPECT_EQ(catalog.uarches(), mono.uarches());

    // Search answers in the same order as the arch-major monolith.
    db::Query query;
    query.uses_ports = uarch::portMask({0, 5});
    auto catalog_rows = catalog.search(query);
    auto mono_rows = mono.search(query);
    ASSERT_EQ(catalog_rows.size(), mono_rows.size());
    for (size_t i = 0; i < mono_rows.size(); ++i) {
        db::RecordView want = mono.record(mono_rows[i]);
        EXPECT_EQ(catalog_rows[i].name(), want.name());
        EXPECT_EQ(catalog_rows[i].arch(), want.arch());
        EXPECT_EQ(catalog_rows[i].tpMeasured(), want.tpMeasured());
    }

    // Limits span shards exactly like a monolith row-order scan.
    db::Query limited;
    limited.limit = static_cast<size_t>(
        mono.numRecords(uarch::UArch::Nehalem) + 2);
    auto spanning = catalog.search(limited);
    ASSERT_EQ(spanning.size(), limited.limit);
    EXPECT_EQ(spanning.front().arch(), uarch::UArch::Nehalem);
    EXPECT_EQ(spanning.back().arch(), uarch::UArch::Skylake);

    EXPECT_EQ(catalog.findByName("ADD_R64_R64").size(),
              mono.findByName("ADD_R64_R64").size());

    // Diff agrees with the monolith in content and order.
    auto catalog_diff =
        catalog.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    auto mono_diff =
        mono.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    EXPECT_EQ(catalog_diff.common, mono_diff.common);
    EXPECT_EQ(catalog_diff.only_a, mono_diff.only_a);
    EXPECT_EQ(catalog_diff.only_b, mono_diff.only_b);
    ASSERT_EQ(catalog_diff.changed.size(),
              mono_diff.changed.size());
    for (size_t i = 0; i < mono_diff.changed.size(); ++i) {
        EXPECT_EQ(catalog_diff.changed[i].a.name(),
                  mono.record(mono_diff.changed[i].row_a).name());
        EXPECT_EQ(catalog_diff.changed[i].tp_differs,
                  mono_diff.changed[i].tp_differs);
        EXPECT_EQ(catalog_diff.changed[i].ports_differ,
                  mono_diff.changed[i].ports_differ);
        EXPECT_EQ(catalog_diff.changed[i].latency_differs,
                  mono_diff.changed[i].latency_differs);
    }
}

TEST(Catalog, MmapLoadIsCopyOnWriteForLaterIngest)
{
    // Ingesting on top of a zero-copy-loaded shard must produce the
    // same bytes as the all-in-memory build: the first mutation
    // copies the borrowed columns out of the mapping.
    const std::string dir = freshDir("mmap_cow");
    db::saveCatalogDir(*sweepCatalog(), dir);
    const db::ShardEntry &nhm = sweepCatalog()->shards().front();
    ASSERT_EQ(nhm.arch, uarch::UArch::Nehalem);

    auto mapped = db::loadShardMapped(mapFile(dir + "/" + nhm.file),
                                      uarch::UArch::Nehalem);
    mapped->ingest(sliceReport().uarches[1].toSet());

    db::InstructionDatabase direct;
    direct.ingest(sliceReport().uarches[0].toSet());
    direct.ingest(sliceReport().uarches[1].toSet());
    EXPECT_EQ(db::snapshotBytes(*mapped),
              db::snapshotBytes(direct));
}

TEST(Catalog, CorruptStoreIsRefused)
{
    const std::string dir = freshDir("corrupt");
    db::saveCatalogDir(*sweepCatalog(), dir);
    EXPECT_EQ(db::readCatalogGeneration(dir),
              std::optional<uint64_t>(1));
    EXPECT_EQ(db::readCatalogGeneration(dir + "_missing"),
              std::nullopt);

    // Flip one byte of a shard: the manifest hash check refuses it.
    const std::string victim =
        dir + "/" + sweepCatalog()->shards().back().file;
    {
        std::fstream file(victim, std::ios::binary | std::ios::in |
                                      std::ios::out);
        ASSERT_TRUE(file);
        file.seekg(100);
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        file.seekp(100);
        file.write(&byte, 1);
    }
    EXPECT_THROW(db::loadCatalogDir(dir), FatalError);

    // A torn manifest is rejected too.
    {
        std::ofstream manifest(dir + "/manifest",
                               std::ios::binary | std::ios::trunc);
        manifest << "UOPSMF";
    }
    EXPECT_THROW(db::loadCatalogDir(dir), FatalError);
}

TEST(Catalog, EmptyShardRoundTrips)
{
    // A uarch swept with zero successful variants still publishes an
    // (empty) shard — the mechanism for deliberately erasing one.
    core::BatchOptions options;
    options.characterizer.filter = [](const isa::InstrVariant &) {
        return false;
    };
    auto catalog = db::runCatalogSweep(
        defaultDb(), {uarch::UArch::Nehalem}, options, nullptr);
    ASSERT_EQ(catalog->shards().size(), 1u);
    EXPECT_EQ(catalog->numRecords(), 0u);
    EXPECT_TRUE(catalog->uarches().empty());

    const std::string dir = freshDir("empty");
    db::saveCatalogDir(*catalog, dir);
    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->numRecords(uarch::UArch::Nehalem), 0u);
    EXPECT_EQ(loaded->shards().front().hash,
              catalog->shards().front().hash);
}

} // namespace
} // namespace uops::test
