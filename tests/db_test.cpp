/**
 * @file
 * Tests for the instruction-performance database (src/db): the
 * golden round-trip property (characterize → XML export → XML shards
 * → shard save → mapped load must be bit-identical to the in-memory
 * and streaming build paths), catalog queries, shard validation,
 * identical answers under concurrent readers, and the sharded
 * catalog engine (golden shard round-trip through the mapped loader,
 * incremental-sweep splicing bit-identical to a full sweep, publishing
 * onto an existing store, the pinned shard bytes of a fresh sweep,
 * refusal of retired formats, and corrupt-store rejection).
 */

#include <algorithm>
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

/** Fresh, empty temp directory for one test. */
std::string
freshDir(const std::string &name)
{
    auto path = std::filesystem::temp_directory_path() /
                ("uops_db_test_" + name);
    std::filesystem::remove_all(path);
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
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    ASSERT_TRUE(static_cast<bool>(os)) << path;
}

/** Map @p bytes as a shard of @p arch (through a temp file: shards
 *  are only ever loaded from a mapping). */
std::unique_ptr<db::InstructionDatabase>
loadShardBytes(const std::string &bytes, uarch::UArch arch)
{
    const std::string path = freshDir("shard_bytes") + ".shard";
    spill(path, bytes);
    return db::loadShardMapped(mapFile(path), arch);
}

/** The in-memory build path: one shard per uarch set of the report. */
const std::vector<std::unique_ptr<db::InstructionDatabase>> &
setShards()
{
    static const auto shards = [] {
        std::vector<std::unique_ptr<db::InstructionDatabase>> out;
        for (const core::UArchReport &r : sliceReport().uarches)
            out.push_back(db::InstructionDatabase::fromSet(r.toSet()));
        return out;
    }();
    return shards;
}

/** The XML build path over the same report. */
std::vector<db::ShardEntry>
xmlShards()
{
    return db::DatabaseCatalog::shardsFromResults(
        isa::parseResultsXml(sliceReport().toXmlString()),
        &defaultDb());
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

// ---------------------------------------------------------------------
// The golden round-trip (acceptance criterion).
// ---------------------------------------------------------------------

TEST(DbRoundTrip, XmlShardsAreBitIdenticalToInMemoryShards)
{
    // characterize → XML export → XML shards ...
    std::vector<db::ShardEntry> from_xml = xmlShards();

    // ... must match the in-memory build bit for bit.
    ASSERT_EQ(from_xml.size(), setShards().size());
    for (size_t i = 0; i < from_xml.size(); ++i) {
        EXPECT_EQ(from_xml[i].arch, setShards()[i]->arch());
        EXPECT_EQ(from_xml[i].db->arch(), from_xml[i].arch);
        EXPECT_EQ(db::shardBytes(*from_xml[i].db),
                  db::shardBytes(*setShards()[i]));
    }
}

TEST(DbRoundTrip, ShardSaveLoadIsBitExact)
{
    for (const auto &shard : setShards()) {
        std::string bytes = db::shardBytes(*shard);
        auto loaded = loadShardBytes(bytes, shard->arch());
        // save(load(save(db))) == save(db)
        EXPECT_EQ(db::shardBytes(*loaded), bytes);
        EXPECT_EQ(loaded->arch(), shard->arch());
        EXPECT_EQ(loaded->numRecords(), shard->numRecords());
    }
}

TEST(DbRoundTrip, FullPipelineGolden)
{
    // The complete chain of the acceptance criterion in one line per
    // stage: characterize → XML → shards → save → load, then compare
    // query answers (not just bytes) against the in-memory path.
    std::vector<db::ShardEntry> from_xml = xmlShards();
    ASSERT_EQ(from_xml.size(), setShards().size());
    for (size_t s = 0; s < from_xml.size(); ++s) {
        auto loaded = loadShardBytes(db::shardBytes(*from_xml[s].db),
                                     from_xml[s].arch);
        const db::InstructionDatabase &direct = *setShards()[s];
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
            // Bit-identical fixed-point values, not approximately
            // equal.
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
                EXPECT_EQ(lats_a[i].upper_bound,
                          lats_b[i].upper_bound);
                EXPECT_EQ(lats_a[i].slow_cycles,
                          lats_b[i].slow_cycles);
            }
        }
    }
}

TEST(DbRoundTrip, StreamingSweepIngestIsBitIdenticalToAllPaths)
{
    // Direct sweep -> shards: records stream into per-uarch shard
    // databases while the sweep runs, with no XML tree and
    // (keep_results = false) no retained per-variant results. Every
    // shard must be byte-identical to the in-memory build of the same
    // uarch's set and to the XML-materializing path — with integer
    // Cycles columns that is plain memcmp equality, no text
    // canonicalization anywhere.
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
    std::vector<db::ShardEntry> from_xml = xmlShards();
    ASSERT_EQ(streamed.shards().size(), setShards().size());
    ASSERT_EQ(streamed.shards().size(), from_xml.size());
    for (size_t i = 0; i < setShards().size(); ++i) {
        const db::ShardEntry &got = streamed.shards()[i];
        EXPECT_EQ(got.arch, setShards()[i]->arch());
        EXPECT_EQ(db::shardBytes(*got.db),
                  db::shardBytes(*setShards()[i]));
        EXPECT_EQ(db::shardBytes(*got.db),
                  db::shardBytes(*from_xml[i].db));
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
        db::DatabaseCatalog::shardsFromResults(doc, nullptr);
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

/** One <uopsInfo> element of @p arch naming @p names (1*p015 each). */
std::string
uopsInfo(const std::string &arch, std::vector<std::string> names)
{
    std::string xml = "<uopsInfo architecture=\"" + arch + "\">";
    for (const std::string &name : names)
        xml += "<instruction name=\"" + name +
               "\" mnemonic=\"NOT\"><ports usage=\"1*p015\" "
               "uops=\"1\"/><throughput measured=\"0.33\"/>"
               "</instruction>";
    return xml + "</uopsInfo>";
}

TEST(DbRoundTrip, UArchNamedTwiceAppendsInDocumentOrder)
{
    // One shard per uarch, whatever the document's shape: a uarch
    // named by two <uopsInfo> elements gets one shard holding both
    // elements' records in document order.
    std::vector<db::ShardEntry> shards =
        db::DatabaseCatalog::shardsFromResults(
            isa::parseResultsXml("<uopsBatch>" +
                                 uopsInfo("SKL", {"NOT_R64"}) +
                                 uopsInfo("NHM", {"NOT_R32"}) +
                                 uopsInfo("SKL", {"NOT_R16", "NOT_R8"}) +
                                 "</uopsBatch>"),
            nullptr);
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(shards[0].arch, uarch::UArch::Nehalem);
    EXPECT_EQ(shards[1].arch, uarch::UArch::Skylake);
    const db::InstructionDatabase &skl = *shards[1].db;
    ASSERT_EQ(skl.numRecords(), 3u);
    EXPECT_EQ(skl.record(0).name(), "NOT_R64");
    EXPECT_EQ(skl.record(1).name(), "NOT_R16");
    EXPECT_EQ(skl.record(2).name(), "NOT_R8");
    EXPECT_EQ(skl.record(2).extension(), "?");
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
// Queries (the catalog is the cross-uarch surface; a shard answers
// for its own uarch).
// ---------------------------------------------------------------------

TEST(DbQuery, PointLookup)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    // A point lookup picks the uarch's shard, then finds by name.
    const db::InstructionDatabase &skl =
        *catalog.shard(uarch::UArch::Skylake);
    auto row = skl.find("ADD_R64_R64");
    ASSERT_TRUE(row.has_value());
    db::RecordView rec = skl.record(*row);
    EXPECT_EQ(rec.name(), "ADD_R64_R64");
    EXPECT_EQ(rec.mnemonic(), "ADD");
    EXPECT_EQ(rec.arch(), uarch::UArch::Skylake);
    EXPECT_GT(rec.uopCount(), 0);
    EXPECT_GT(rec.tpMeasured().hundredths(), 0);
    EXPECT_FALSE(skl.find("NO_SUCH_VARIANT"));
    // Present on both uarches.
    EXPECT_EQ(catalog.findByName("ADD_R64_R64").size(), 2u);
}

TEST(DbQuery, MnemonicAndExtensionIndexes)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::Query query;
    query.mnemonic = "ADD";
    auto records = catalog.search(query);
    ASSERT_FALSE(records.empty());
    for (const db::RecordView &rec : records)
        EXPECT_EQ(rec.mnemonic(), "ADD");

    db::Query by_ext;
    by_ext.extension = "AVX";
    by_ext.arch = uarch::UArch::Skylake;
    auto avx = catalog.search(by_ext);
    ASSERT_FALSE(avx.empty());
    for (const db::RecordView &rec : avx)
        EXPECT_EQ(rec.extension(), "AVX");

    // AVX doesn't exist on Nehalem.
    by_ext.arch = uarch::UArch::Nehalem;
    EXPECT_TRUE(catalog.search(by_ext).empty());
}

TEST(DbQuery, PortMaskSupersetScan)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.uses_ports = uarch::portMask({0, 5});
    auto records = catalog.search(query);
    ASSERT_FALSE(records.empty());
    for (const db::RecordView &rec : records)
        EXPECT_EQ(rec.portUnion() & query.uses_ports, query.uses_ports)
            << std::string(rec.name());
    // Sanity: the filter excludes something (e.g. pure p23 loads).
    db::Query all;
    all.arch = uarch::UArch::Skylake;
    EXPECT_LT(records.size(), catalog.search(all).size());
}

TEST(DbQuery, ThroughputAndLatencyRanges)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::Query query;
    query.tp_min = db::tpBoundMin(0.9);
    query.tp_max = db::tpBoundMax(30.0);
    auto records = catalog.search(query);
    ASSERT_FALSE(records.empty());
    for (const db::RecordView &rec : records) {
        double tp = rec.tpMeasured().toDouble();
        EXPECT_GE(tp, 0.9);
        EXPECT_LE(tp, 30.0);
    }

    db::Query lat_query;
    lat_query.lat_min = 10;   // dividers
    auto lat_records = catalog.search(lat_query);
    ASSERT_FALSE(lat_records.empty());
    for (const db::RecordView &rec : lat_records)
        EXPECT_GE(rec.maxLatency(), 10);
}

TEST(DbQuery, LimitAndCombinedPredicates)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.limit = 3;
    EXPECT_EQ(catalog.search(query).size(), 3u);

    db::Query combined;
    combined.mnemonic = "DIV";
    combined.arch = uarch::UArch::Skylake;
    combined.lat_min = 2;
    auto records = catalog.search(combined);
    EXPECT_FALSE(records.empty());
    for (const db::RecordView &rec : records) {
        EXPECT_EQ(rec.mnemonic(), "DIV");
        EXPECT_GE(rec.maxLatency(), 2);
    }
}

TEST(DbQuery, CrossUArchDiff)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::CatalogDiff diff =
        catalog.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    EXPECT_GT(diff.common, 0u);
    // AVX variants exist only on Skylake.
    EXPECT_FALSE(diff.only_b.empty());
    EXPECT_TRUE(diff.only_a.empty());
    EXPECT_TRUE(std::is_sorted(diff.only_b.begin(), diff.only_b.end()));
    for (const db::CatalogDiff::Entry &entry : diff.changed) {
        EXPECT_TRUE(entry.tp_differs || entry.ports_differ ||
                    entry.latency_differs);
        EXPECT_EQ(entry.a.name(), entry.b.name());
        EXPECT_EQ(entry.a.arch(), uarch::UArch::Nehalem);
        EXPECT_EQ(entry.b.arch(), uarch::UArch::Skylake);
    }
    // Diff against self reports nothing.
    db::CatalogDiff self =
        catalog.diff(uarch::UArch::Skylake, uarch::UArch::Skylake);
    EXPECT_TRUE(self.changed.empty());
    EXPECT_TRUE(self.only_a.empty());
    EXPECT_TRUE(self.only_b.empty());
}

TEST(DbQuery, UArchEnumeration)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    auto arches = catalog.uarches();
    ASSERT_EQ(arches.size(), 2u);
    EXPECT_EQ(arches[0], uarch::UArch::Nehalem);
    EXPECT_EQ(arches[1], uarch::UArch::Skylake);
    EXPECT_EQ(catalog.numRecords(uarch::UArch::Nehalem) +
                  catalog.numRecords(uarch::UArch::Skylake),
              catalog.numRecords());
}

TEST(DbQuery, ToCharacterizationSetResolvesVariants)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    auto set = catalog.toCharacterizationSet(uarch::UArch::Skylake,
                                             defaultDb());
    EXPECT_EQ(set.arch, uarch::UArch::Skylake);
    EXPECT_EQ(set.instrs.size(),
              catalog.numRecords(uarch::UArch::Skylake));
    const auto *c = set.find("ADD_R64_R64");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->variant, defaultDb().byName("ADD_R64_R64"));
    EXPECT_FALSE(c->latency.pairs.empty());
    EXPECT_GT(c->ports.usage.totalUops(), 0);

    // The in-memory build path round-trips through the set.
    auto rebuilt = db::InstructionDatabase::fromSet(set);
    EXPECT_EQ(db::shardBytes(*rebuilt),
              db::shardBytes(*catalog.shard(uarch::UArch::Skylake)));
}

// ---------------------------------------------------------------------
// Container validation.
// ---------------------------------------------------------------------

TEST(DbSnapshot, RejectsCorruptInput)
{
    // Corruptions of shard bytes (first array after the 32-byte
    // header).
    const std::string bytes = db::shardBytes(*setShards()[0]);
    auto load = [](const std::string &b) {
        loadShardBytes(b, uarch::UArch::Nehalem);
    };
    ASSERT_GT(bytes.size(), 64u);
    EXPECT_NO_THROW(load(bytes));

    EXPECT_THROW(load(""), db::StoreError);
    EXPECT_THROW(load(bytes.substr(0, bytes.size() / 2)), db::StoreError);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW(load(bad_magic), db::StoreError);

    std::string bad_version = bytes;
    bad_version[8] = char(0x7f);
    EXPECT_THROW(load(bad_version), db::StoreError);

    // A corrupt array-length prefix must be refused before anything is
    // bound: 16M declared elements exceed the remaining bytes but pass
    // the implausible-size cap, so this exercises the remaining-bytes
    // bound specifically.
    std::string length_bomb = bytes;
    length_bomb[32] = char(0xff);
    length_bomb[33] = char(0xff);
    length_bomb[34] = char(0xff);
    for (size_t i = 35; i < 40; ++i)
        length_bomb[i] = 0;
    EXPECT_THROW(load(length_bomb), db::StoreError);

    // The retired versions (v2 monolith, v1 doubles) are refused by
    // number.
    for (int version : {2, 1}) {
        std::string retired = bytes;
        retired[8] = static_cast<char>(version);
        try {
            load(retired);
            ADD_FAILURE() << "a version-" << version << " container loaded";
        } catch (const db::StoreError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "version " + std::to_string(version) + " "),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(DbSnapshot, DuplicateIngestIsRejected)
{
    // A document naming one variant twice for one uarch (here across
    // two elements of that uarch) cannot become a shard.
    try {
        db::DatabaseCatalog::shardsFromResults(
            isa::parseResultsXml("<uopsBatch>" +
                                 uopsInfo("NHM", {"NOT_R64"}) +
                                 uopsInfo("SKL", {"NOT_R64"}) +
                                 uopsInfo("NHM", {"NOT_R64"}) +
                                 "</uopsBatch>"),
            nullptr);
        ADD_FAILURE() << "duplicate NHM/NOT_R64 ingested";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "duplicate record for NHM/NOT_R64"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(db::DatabaseCatalog::shardsFromResults(
                     isa::parseResultsXml(
                         uopsInfo("SKL", {"NOT_R8", "NOT_R8"})),
                     nullptr),
                 FatalError);
}

// ---------------------------------------------------------------------
// Concurrent readers (satellite: snapshot-identical responses).
// ---------------------------------------------------------------------

TEST(DbConcurrency, ParallelReadersSeeIdenticalAnswers)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    auto names = [](const std::vector<db::RecordView> &records) {
        std::vector<std::string> out;
        for (const db::RecordView &rec : records)
            out.emplace_back(rec.name());
        return out;
    };

    // Baseline answers, computed single-threaded.
    db::Query by_ports;
    by_ports.uses_ports = uarch::portMask({0});
    const auto baseline_ports = names(catalog.search(by_ports));
    db::Query by_mnemonic;
    by_mnemonic.mnemonic = "ADD";
    const auto baseline_add = names(catalog.search(by_mnemonic));
    const auto baseline_diff =
        catalog.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    const db::InstructionDatabase &skl =
        *catalog.shard(uarch::UArch::Skylake);
    const auto baseline_row = skl.find("ADD_R64_R64");
    ASSERT_TRUE(baseline_row.has_value());
    const Cycles baseline_tp = skl.record(*baseline_row).tpMeasured();

    std::atomic<size_t> mismatches{0};
    ThreadPool pool(8);
    pool.parallelFor(400, [&](size_t i, size_t) {
        switch (i % 4) {
          case 0: {
            if (names(catalog.search(by_ports)) != baseline_ports)
                ++mismatches;
            break;
          }
          case 1: {
            if (names(catalog.search(by_mnemonic)) != baseline_add)
                ++mismatches;
            break;
          }
          case 2: {
            auto diff = catalog.diff(uarch::UArch::Nehalem,
                                     uarch::UArch::Skylake);
            if (diff.common != baseline_diff.common ||
                diff.changed.size() != baseline_diff.changed.size())
                ++mismatches;
            break;
          }
          case 3: {
            auto row = skl.find("ADD_R64_R64");
            if (!row || skl.record(*row).tpMeasured() != baseline_tp)
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

TEST(Catalog, XmlShardsMatchSweepShards)
{
    // The two catalog construction paths — the streaming per-uarch
    // sweep and the re-parsed XML export — must produce the same
    // shard bytes, or `uopsq ingest` and an incremental sweep could
    // not be compared by hash.
    db::DatabaseCatalog from_xml(xmlShards(), 1);
    ASSERT_EQ(from_xml.shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < from_xml.shards().size(); ++i) {
        const db::ShardEntry &a = from_xml.shards()[i];
        const db::ShardEntry &b = sweepCatalog()->shards()[i];
        EXPECT_EQ(a.arch, b.arch);
        EXPECT_EQ(db::shardBytes(*a.db), db::shardBytes(*b.db));
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
        EXPECT_EQ(got.db->arch(), want.arch);
        EXPECT_EQ(got.records, want.records);
        EXPECT_EQ(got.hash, want.hash);
        // Loaded shards re-serialize to the exact bytes saved.
        EXPECT_EQ(db::shardBytes(*got.db), db::shardBytes(*want.db));
    }

    // Query answers match the in-memory catalog.
    const db::InstructionDatabase &got_skl =
        *loaded->shard(uarch::UArch::Skylake);
    const db::InstructionDatabase &want_skl =
        *sweepCatalog()->shard(uarch::UArch::Skylake);
    auto got_row = got_skl.find("ADD_R64_R64");
    auto want_row = want_skl.find("ADD_R64_R64");
    ASSERT_TRUE(got_row.has_value());
    ASSERT_TRUE(want_row.has_value());
    EXPECT_EQ(got_skl.record(*got_row).tpMeasured(),
              want_skl.record(*want_row).tpMeasured());
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
        EXPECT_EQ(db::shardBytes(*got.db), db::shardBytes(*want.db));
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
        std::string bytes = slurp(dir_full + "/" + entry.file);
        EXPECT_EQ(bytes, slurp(dir_incr + "/" + entry.file))
            << entry.file;
        EXPECT_EQ(fnv1a64(bytes), entry.hash);
    }
    EXPECT_EQ(db::loadCatalogDir(dir_incr)->generation(), 2u);
}

TEST(Catalog, PublishOntoExistingCatalogAddsAGeneration)
{
    // `uopsq ingest` into a directory that already holds generation 2
    // must publish generation 3 on top of it — not rewrite generation
    // 1 in place, where the newer generation would shadow it.
    core::BatchOptions options;
    options.num_threads = 2;
    auto sweep = [&options](const char *mnemonic,
                            const db::DatabaseCatalog *base,
                            core::CharacterizationReport *report) {
        options.characterizer.filter =
            [mnemonic](const isa::InstrVariant &v) {
                return v.mnemonic() == mnemonic;
            };
        return db::runCatalogSweep(defaultDb(), {uarch::UArch::Nehalem},
                                   options, base, report);
    };
    auto gen1 = sweep("XOR", nullptr, nullptr);
    auto gen2 = sweep("IMUL", gen1.get(), nullptr);
    core::CharacterizationReport report;
    auto added = sweep("ADD", nullptr, &report);

    const std::string dir = freshDir("publish");
    db::saveCatalogDir(*gen1, dir);
    db::saveCatalogDir(*gen2, dir);
    const std::string manifest1 = dir + "/" + db::manifestFileName(1);
    const std::string manifest1_bytes = slurp(manifest1);

    auto published = db::publishShards(
        dir, db::DatabaseCatalog::shardsFromResults(
                 isa::parseResultsXml(report.toXmlString()),
                 &defaultDb()));
    EXPECT_EQ(published->generation(), 3u);
    EXPECT_EQ(slurp(manifest1), manifest1_bytes);

    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->generation(), 3u);
    EXPECT_EQ(loaded->contentHash(), added->contentHash());

    // An empty directory starts at generation 1.
    const std::string fresh = freshDir("publish_fresh");
    EXPECT_EQ(db::publishShards(fresh, xmlShards())->generation(), 1u);
    EXPECT_EQ(db::loadCatalogDir(fresh)->contentHash(),
              sweepCatalog()->contentHash());
}

TEST(Catalog, FreshSweepWritesPinnedShards)
{
    // `uopsq characterize --arches NHM,SKL --mod 64` writes exactly
    // these shard files. Their content-addressed names pin the shard
    // bytes across commits; CI's store round trip checks the same
    // names.
    core::BatchOptions options;
    options.num_threads = 2;
    options.keep_results = false;
    options.characterizer.filter = [](const isa::InstrVariant &v) {
        return v.id() % 64 == 0;
    };
    const std::string dir = freshDir("pinned");
    db::saveCatalogDir(
        *db::runCatalogSweep(defaultDb(), kArches, options, nullptr), dir);
    std::vector<std::string> files;
    for (const auto &de : std::filesystem::directory_iterator(dir))
        files.push_back(de.path().filename().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{
                         "NHM-7d4f2240de755f7b.shard",
                         "SKL-46811200eddeb5ea.shard",
                         db::manifestFileName(1),
                     }));
}

TEST(Catalog, QueriesSpanShardsInArchOrder)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    const db::InstructionDatabase &nhm =
        *catalog.shard(uarch::UArch::Nehalem);
    const db::InstructionDatabase &skl =
        *catalog.shard(uarch::UArch::Skylake);
    EXPECT_EQ(catalog.numRecords(), nhm.numRecords() + skl.numRecords());

    // Unrouted search answers arch-major: every shard's hits in row
    // order, shards in chronological uarch order.
    db::Query query;
    query.uses_ports = uarch::portMask({0, 5});
    std::vector<db::RecordView> want;
    for (const db::InstructionDatabase *shard : {&nhm, &skl})
        for (uint32_t row : shard->search(query))
            want.push_back(shard->record(row));
    auto got = catalog.search(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].name(), want[i].name());
        EXPECT_EQ(got[i].arch(), want[i].arch());
        EXPECT_EQ(got[i].row(), want[i].row());
    }

    // Limits span shards in that order.
    db::Query limited;
    limited.limit = static_cast<size_t>(nhm.numRecords() + 2);
    auto spanning = catalog.search(limited);
    ASSERT_EQ(spanning.size(), limited.limit);
    EXPECT_EQ(spanning.front().arch(), uarch::UArch::Nehalem);
    EXPECT_EQ(spanning[nhm.numRecords() - 1].arch(),
              uarch::UArch::Nehalem);
    EXPECT_EQ(spanning[nhm.numRecords()].arch(), uarch::UArch::Skylake);
    EXPECT_EQ(spanning.back().arch(), uarch::UArch::Skylake);
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
}

TEST(Catalog, RetiredFormatsAreRefused)
{
    auto refusal = [](const std::string &path) {
        try {
            db::loadCatalogDir(path);
            ADD_FAILURE() << path << " loaded as a catalog";
        } catch (const db::CatalogError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    // A file path, such as a single-file v1/v2 snapshot, is refused.
    const std::string file = freshDir("retired_file") + ".snap";
    spill(file, db::shardBytes(*setShards()[0]));
    EXPECT_NE(refusal(file).find("is a file, not a catalog directory"),
              std::string::npos);

    // So is a pre-numbered store, whose only manifest is a bare
    // `manifest`; the refusal deletes nothing.
    const std::string bare = freshDir("retired_bare");
    db::saveCatalogDir(*sweepCatalog(), bare);
    std::filesystem::rename(bare + "/" + db::manifestFileName(1),
                            bare + "/manifest");
    EXPECT_EQ(db::readCatalogGeneration(bare), std::nullopt);
    EXPECT_NE(refusal(bare).find("only an unnumbered `manifest`"),
              std::string::npos);
    for (const db::ShardEntry &entry : sweepCatalog()->shards())
        EXPECT_TRUE(std::filesystem::exists(bare + "/" + entry.file));

    // A bare `manifest` beside a numbered one is not a candidate: the
    // numbered generation loads, nothing is rejected, and the bare
    // file stays. It protects nothing from load-time GC, so the SKL
    // shard that only it names is removed.
    const std::string beside = freshDir("retired_beside");
    db::saveCatalogDir(*sweepCatalog(), beside);
    std::filesystem::rename(beside + "/" + db::manifestFileName(1),
                            beside + "/manifest");
    db::DatabaseCatalog nhm_only({sweepCatalog()->shards().front()}, 1);
    db::saveCatalogDir(nhm_only, beside);
    db::RecoveryReport report;
    auto loaded =
        db::loadCatalogDir(beside, db::LoadMode::Mmap, true, &report);
    EXPECT_EQ(loaded->contentHash(), nhm_only.contentHash());
    EXPECT_FALSE(report.recovered);
    EXPECT_TRUE(report.rejected_generations.empty());
    EXPECT_TRUE(std::filesystem::exists(beside + "/manifest"));
    const std::string skl = sweepCatalog()->shards().back().file;
    EXPECT_EQ(report.removed_files, std::vector<std::string>{skl});
    EXPECT_FALSE(std::filesystem::exists(beside + "/" + skl));
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
    EXPECT_EQ(loaded->shards().front().db->arch(),
              uarch::UArch::Nehalem);
    EXPECT_EQ(loaded->shards().front().hash,
              catalog->shards().front().hash);
}

} // namespace
} // namespace uops::test
