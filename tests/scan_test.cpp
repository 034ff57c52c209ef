/**
 * @file
 * Property and regression tests for the predicate-pushdown scan
 * executor (src/db/scan.*): randomized composed predicates must
 * answer exactly like a brute-force RecordView filter over every shard
 * of a seeded all-nine-uarch catalog and across the catalog, the
 * index short-circuits and the per-shard arch constant must actually
 * fire (asserted through ScanStats), the fixed-point
 * throughput-bound conversion must round the way the doc comment
 * promises, and the cross-generation analytics merge must agree with
 * a hand-built name-keyed diff.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "db/scan.h"
#include "support/status.h"
#include "test_util.h"

namespace uops::test {
namespace {

/** Same diverse slice as db_test (GPR ALU, zero idiom, SSE, AVX,
 *  divider, memory), but swept across every supported generation so
 *  the arch constant and analytics merges see all nine shards. */
bool
scanSliceFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR" || m == "PXOR" || m == "DIV" ||
           m == "MOVAPS" || m == "VPXOR" || m == "IMUL";
}

std::shared_ptr<const db::DatabaseCatalog>
nineCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = scanSliceFilter;
        options.keep_results = false;
        return db::runCatalogSweep(defaultDb(), uarch::allUArches(),
                                   options, nullptr);
    }();
    return catalog;
}

/** One shard of the nine-uarch catalog. */
const db::InstructionDatabase &
nineShard(uarch::UArch arch)
{
    return *nineCatalog()->shard(arch);
}

/** The RecordFlag byte reconstructed purely through the public
 *  RecordView accessors — the reference the packed column must
 *  agree with. */
uint8_t
recordFlags(const db::RecordView &r)
{
    uint8_t flags = 0;
    if (r.tpWithBreakers())
        flags |= db::kHasTpBreakers;
    if (r.tpSlow())
        flags |= db::kHasTpSlow;
    if (r.tpFromPorts())
        flags |= db::kHasTpPorts;
    if (r.sameRegCycles())
        flags |= db::kHasSameReg;
    if (r.storeRoundTrip())
        flags |= db::kHasStoreRt;
    return flags;
}

/** Brute-force reference semantics of one Query conjunct set,
 *  written against RecordView only (no columns, no indexes). */
bool
matchesBruteForce(const db::RecordView &r, const db::Query &q)
{
    if (q.arch && r.arch() != *q.arch)
        return false;
    if (q.name && r.name() != *q.name)
        return false;
    if (q.mnemonic && r.mnemonic() != *q.mnemonic)
        return false;
    if (q.extension && r.extension() != *q.extension)
        return false;
    if (q.uses_ports &&
        (r.portUnion() & q.uses_ports) != q.uses_ports)
        return false;
    if (q.ports_subset &&
        (r.portUnion() & static_cast<uarch::PortMask>(
                             ~*q.ports_subset)) != 0)
        return false;
    if (q.ports_exact && r.portUnion() != *q.ports_exact)
        return false;
    if (q.tp_min && r.tpMeasured() < *q.tp_min)
        return false;
    if (q.tp_max && *q.tp_max < r.tpMeasured())
        return false;
    if (q.lat_min && r.maxLatency() < *q.lat_min)
        return false;
    if (q.lat_max && r.maxLatency() > *q.lat_max)
        return false;
    if (q.uops_min && r.uopCount() < *q.uops_min)
        return false;
    if (q.uops_max && r.uopCount() > *q.uops_max)
        return false;
    if (q.has_flags &&
        (recordFlags(r) & q.has_flags) != q.has_flags)
        return false;
    return true;
}

std::vector<uint32_t>
bruteForceSearch(const db::InstructionDatabase &db, const db::Query &q)
{
    std::vector<uint32_t> rows;
    for (uint32_t row = 0;
         row < static_cast<uint32_t>(db.numRecords()); ++row) {
        if (rows.size() >= q.limit)
            break;
        if (matchesBruteForce(db.record(row), q))
            rows.push_back(row);
    }
    return rows;
}

/** Brute force across the catalog: every record, arch-major, capped
 *  by the query's limit across shards. */
std::vector<db::RecordView>
bruteForceSearch(const db::DatabaseCatalog &catalog, const db::Query &q)
{
    std::vector<db::RecordView> out;
    for (const db::ShardEntry &entry : catalog.shards())
        for (uint32_t row = 0;
             row < static_cast<uint32_t>(entry.db->numRecords());
             ++row) {
            if (out.size() >= q.limit)
                return out;
            if (matchesBruteForce(entry.db->record(row), q))
                out.push_back(entry.db->record(row));
        }
    return out;
}

/** (uarch, name) of each record: what identifies it across shards. */
std::vector<std::pair<uarch::UArch, std::string>>
identities(const std::vector<db::RecordView> &records)
{
    std::vector<std::pair<uarch::UArch, std::string>> out;
    for (const db::RecordView &r : records)
        out.emplace_back(r.arch(), std::string(r.name()));
    return out;
}

/** One random query: every field set with independent probability,
 *  operands sampled from a real record of the catalog half the time
 *  (so conjunctions actually hit) and drawn blind otherwise (so
 *  misses and unsatisfiable combinations are exercised too). */
db::Query
randomQuery(std::mt19937 &rng, const db::DatabaseCatalog &catalog)
{
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<uint32_t> any_row(
        0, static_cast<uint32_t>(catalog.numRecords()) - 1);
    uint32_t pick = any_row(rng);
    const db::ShardEntry *home = nullptr;
    for (const db::ShardEntry &entry : catalog.shards()) {
        home = &entry;
        if (pick < entry.db->numRecords())
            break;
        pick -= static_cast<uint32_t>(entry.db->numRecords());
    }
    db::RecordView sample = home->db->record(pick);

    db::Query q;
    if (coin(rng) < 0.5)
        q.arch = coin(rng) < 0.7
                     ? sample.arch()
                     : uarch::allUArches()[any_row(rng) % 9];
    if (coin(rng) < 0.2)
        q.name = std::string(sample.name());
    if (coin(rng) < 0.25)
        q.mnemonic = coin(rng) < 0.8 ? std::string(sample.mnemonic())
                                     : std::string("NOSUCH");
    if (coin(rng) < 0.2)
        q.extension = std::string(sample.extension());
    if (coin(rng) < 0.4)
        q.uses_ports = coin(rng) < 0.7
                           ? sample.portUnion()
                           : static_cast<uarch::PortMask>(
                                 any_row(rng) & 0xFF);
    if (coin(rng) < 0.2)
        q.ports_subset = static_cast<uarch::PortMask>(
            sample.portUnion() | (any_row(rng) & 0x3F));
    if (coin(rng) < 0.15)
        q.ports_exact = sample.portUnion();
    if (coin(rng) < 0.3) {
        Cycles tp = sample.tpMeasured();
        if (coin(rng) < 0.5)
            q.tp_min = Cycles::fromHundredths(
                tp.hundredths() - static_cast<int64_t>(
                                      any_row(rng) % 100));
        if (coin(rng) < 0.5)
            q.tp_max = Cycles::fromHundredths(
                tp.hundredths() + static_cast<int64_t>(
                                      any_row(rng) % 100));
    }
    if (coin(rng) < 0.25) {
        if (coin(rng) < 0.5)
            q.lat_min = sample.maxLatency();
        else
            q.lat_max = sample.maxLatency();
    }
    if (coin(rng) < 0.25) {
        if (coin(rng) < 0.5)
            q.uops_min = sample.uopCount();
        else
            q.uops_max = sample.uopCount();
    }
    if (coin(rng) < 0.25)
        q.has_flags = recordFlags(sample) &
                      static_cast<uint8_t>(any_row(rng) & 0x1F);
    if (coin(rng) < 0.3)
        q.limit = 1 + any_row(rng) % 20;
    return q;
}

// ---------------------------------------------------------------------
// The core property: executor == brute force, always.
// ---------------------------------------------------------------------

TEST(ScanProperty, RandomComposedPredicatesMatchBruteForce)
{
    const db::DatabaseCatalog &catalog = *nineCatalog();
    ASSERT_EQ(catalog.shards().size(), 9u);
    ASSERT_GT(catalog.numRecords(), 400u);

    std::mt19937 rng(0x5EED);
    for (int trial = 0; trial < 400; ++trial) {
        db::Query q = randomQuery(rng, catalog);
        // Per shard: the executor, arch constant included.
        for (const db::ShardEntry &entry : catalog.shards())
            ASSERT_EQ(bruteForceSearch(*entry.db, q), entry.db->search(q))
                << "trial " << trial << " diverged from brute force on "
                << uarch::uarchShortName(entry.arch);
        // Across the catalog: routing, arch-major order and a limit
        // that spans shards.
        ASSERT_EQ(identities(bruteForceSearch(catalog, q)),
                  identities(catalog.search(q)))
            << "trial " << trial << " diverged across the catalog";
    }
}

TEST(ScanProperty, ExecutorWithExplicitPredicatesMatchesQueryPath)
{
    // The factory-built PredicateSet must behave exactly like the
    // Query compiled through predicatesFromQuery.
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Skylake);
    db::Query q;
    q.arch = uarch::UArch::Skylake;
    q.uses_ports = uarch::portMask({0, 5});
    q.lat_max = 6;

    db::PredicateSet preds;
    preds.add(db::archIs(uarch::UArch::Skylake));
    preds.add(db::portsSuperset(uarch::portMask({0, 5})));
    preds.add(db::latBetween(std::nullopt, 6));

    db::ScanExecutor exec(db);
    ASSERT_FALSE(exec.run(preds).empty());
    EXPECT_EQ(db.search(q), exec.run(preds));
    EXPECT_EQ(bruteForceSearch(db, q), exec.run(preds));
}

TEST(ScanProperty, EmptyPredicateSetReturnsEveryRowInOrder)
{
    for (const db::ShardEntry &entry : nineCatalog()->shards()) {
        const db::InstructionDatabase &db = *entry.db;
        db::ScanExecutor exec(db);
        auto rows = exec.run(db::PredicateSet{});
        ASSERT_EQ(rows.size(), db.numRecords());
        EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
        EXPECT_EQ(rows.front(), 0u);
        EXPECT_EQ(rows.back(),
                  static_cast<uint32_t>(db.numRecords()) - 1);
    }
}

TEST(ScanProperty, LimitTruncatesFirstMatchesExactly)
{
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Haswell);
    db::Query q;
    q.uses_ports = uarch::portMask({0});
    auto all = db.search(q);
    ASSERT_GT(all.size(), 10u);
    q.limit = 7;
    auto capped = db.search(q);
    ASSERT_EQ(capped.size(), 7u);
    EXPECT_TRUE(std::equal(capped.begin(), capped.end(), all.begin()));
}

TEST(ScanProperty, PredicateSetOverflowThrows)
{
    db::PredicateSet preds;
    for (size_t i = 0; i < db::PredicateSet::kCapacity; ++i)
        preds.add(db::hasFlags(1));
    EXPECT_THROW(preds.add(db::hasFlags(1)), FatalError);
}

// ---------------------------------------------------------------------
// Short-circuit tiers, pinned through ScanStats.
// ---------------------------------------------------------------------

TEST(ScanStats, StringIndexShortCircuitsTheScan)
{
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Skylake);
    db::PredicateSet preds;
    preds.add(db::mnemonicIs("ADD"));
    preds.add(db::archIs(uarch::UArch::Skylake));

    db::ScanStats stats;
    db::ScanExecutor exec(db);
    auto rows = exec.run(preds, SIZE_MAX, &stats);
    ASSERT_FALSE(rows.empty());
    EXPECT_TRUE(stats.used_string_index);
    // Candidates were the mnemonic's postings, not the table.
    EXPECT_LT(stats.rows_considered, db.numRecords());
    EXPECT_EQ(stats.rows_matched, rows.size());
}

TEST(ScanStats, UnknownStringOperandAnswersEmptyWithoutScanning)
{
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Skylake);
    db::PredicateSet preds;
    preds.add(db::nameIs("NO SUCH VARIANT"));
    db::ScanStats stats;
    db::ScanExecutor exec(db);
    EXPECT_TRUE(exec.run(preds, SIZE_MAX, &stats).empty());
    EXPECT_EQ(stats.rows_considered, 0u);
}

TEST(ScanStats, ArchPredicateIsAConstantPerShard)
{
    // A shard holds one uarch: its own arch predicate considers every
    // row (and filters none), any other arch considers none.
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Haswell);
    db::ScanExecutor exec(db);
    for (uarch::UArch arch : uarch::allUArches()) {
        db::PredicateSet preds;
        preds.add(db::archIs(arch));
        db::ScanStats stats;
        auto rows = exec.run(preds, SIZE_MAX, &stats);
        if (arch == uarch::UArch::Haswell) {
            EXPECT_EQ(rows.size(), db.numRecords());
            EXPECT_EQ(stats.rows_considered, db.numRecords());
        } else {
            EXPECT_TRUE(rows.empty()) << uarch::uarchShortName(arch);
            EXPECT_EQ(stats.rows_considered, 0u);
        }
        EXPECT_EQ(stats.rows_matched, rows.size());

        // The same holds behind the string index.
        preds.add(db::mnemonicIs("ADD"));
        EXPECT_EQ(exec.run(preds).empty(), arch != uarch::UArch::Haswell);
    }
}

TEST(ScanStats, SelectiveThroughputWindowUsesOrderIndex)
{
    const db::InstructionDatabase &db = nineShard(uarch::UArch::Skylake);
    // The most expensive throughput in the slice (the divider) is
    // rare; its exact window is far below the n/4 cutoff, so the
    // order index must pre-filter instead of scanning.
    Cycles max_tp = Cycles::fromHundredths(0);
    for (uint32_t row = 0;
         row < static_cast<uint32_t>(db.numRecords()); ++row)
        max_tp = std::max(max_tp, db.record(row).tpMeasured());
    size_t window = 0;
    for (uint32_t row = 0;
         row < static_cast<uint32_t>(db.numRecords()); ++row)
        window += db.record(row).tpMeasured() == max_tp;
    ASSERT_LT(window * 4, db.numRecords())
        << "fixture drift: the max-throughput window is no longer "
           "selective";

    db::PredicateSet preds;
    preds.add(db::tpBetween(max_tp, max_tp));
    db::ScanStats stats;
    db::ScanExecutor exec(db);
    auto rows = exec.run(preds, SIZE_MAX, &stats);
    EXPECT_EQ(rows.size(), window);
    EXPECT_TRUE(stats.used_order_index);
    EXPECT_EQ(stats.rows_considered, window);
    EXPECT_EQ(db.search([&] {
                  db::Query q;
                  q.tp_min = max_tp;
                  q.tp_max = max_tp;
                  return q;
              }()),
              rows);
}

// ---------------------------------------------------------------------
// Fixed-point throughput bounds (the double -> Cycles boundary).
// ---------------------------------------------------------------------

TEST(TpBounds, ExactHundredthsMapToThemselves)
{
    // 0.33 * 100 is 32.999...96 in binary; the bound must still be
    // the exact hundredth, not the rounded-down 32 / rounded-up 33
    // pair a naive ceil/floor would produce.
    EXPECT_EQ(db::tpBoundMin(0.33).hundredths(), 33);
    EXPECT_EQ(db::tpBoundMax(0.33).hundredths(), 33);
    EXPECT_EQ(db::tpBoundMin(1.0).hundredths(), 100);
    EXPECT_EQ(db::tpBoundMax(1.0).hundredths(), 100);
}

TEST(TpBounds, InBetweenValuesRoundInward)
{
    // tp_min takes the ceiling (smallest representable value inside
    // [v, inf)), tp_max the floor — so a range like [0.331, 1.005]
    // can only shrink, never admit a record outside the request.
    EXPECT_EQ(db::tpBoundMin(0.331).hundredths(), 34);
    EXPECT_EQ(db::tpBoundMax(0.331).hundredths(), 33);
    EXPECT_EQ(db::tpBoundMin(1.005).hundredths(), 101);
    EXPECT_EQ(db::tpBoundMax(1.005).hundredths(), 100);
}

TEST(TpBounds, InfinitiesClampAndNanThrows)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(db::tpBoundMax(inf).hundredths(), 9000000000000000);
    EXPECT_EQ(db::tpBoundMin(-inf).hundredths(), -9000000000000000);
    EXPECT_THROW(db::tpBoundMin(std::nan("")), FatalError);
    EXPECT_THROW(db::tpBoundMax(std::nan("")), FatalError);
}

TEST(TpBounds, RangeQueryAgreesWithDoubleComparison)
{
    // End to end: converting a double range at the boundary must
    // select exactly the records a double comparison would.
    const db::DatabaseCatalog &catalog = *nineCatalog();
    for (double lo : {0.25, 0.33, 0.5, 1.0, 3.07}) {
        db::Query q;
        q.tp_min = db::tpBoundMin(lo);
        std::vector<db::RecordView> expected;
        for (const db::ShardEntry &entry : catalog.shards())
            for (uint32_t row = 0;
                 row < static_cast<uint32_t>(entry.db->numRecords());
                 ++row)
                if (entry.db->record(row).tpMeasured().toDouble() >= lo)
                    expected.push_back(entry.db->record(row));
        EXPECT_EQ(identities(catalog.search(q)), identities(expected))
            << "lo=" << lo;
    }
}

// ---------------------------------------------------------------------
// Cross-generation analytics: executor scans + name merge.
// ---------------------------------------------------------------------

TEST(Analytics, ChangedSetMatchesHandBuiltDiff)
{
    auto catalog = nineCatalog();
    db::AnalyticsQuery q;
    q.from = uarch::UArch::Nehalem;
    q.to = uarch::UArch::Skylake;
    q.direction = db::AnalyticsQuery::Direction::Changed;
    auto result = catalog->analytics(q);

    // Reference: name-keyed maps over the two shards.
    const db::InstructionDatabase &from = nineShard(q.from);
    const db::InstructionDatabase &to = nineShard(q.to);
    auto by_name = [](const db::InstructionDatabase &db) {
        std::map<std::string_view, uint32_t> rows;
        for (uint32_t row = 0;
             row < static_cast<uint32_t>(db.numRecords()); ++row)
            rows[db.record(row).name()] = row;
        return rows;
    };
    const auto from_rows = by_name(from);
    const auto to_rows = by_name(to);
    size_t common = 0, changed = 0;
    for (const auto &[name, from_row] : from_rows) {
        auto it = to_rows.find(name);
        if (it == to_rows.end())
            continue;
        ++common;
        db::RecordView a = from.record(from_row);
        db::RecordView b = to.record(it->second);
        if (a.tpMeasured() != b.tpMeasured() ||
            a.maxLatency() != b.maxLatency())
            ++changed;
    }
    EXPECT_EQ(result.common, common);
    EXPECT_EQ(result.matched, changed);
    EXPECT_EQ(result.entries.size(), changed);
    for (const auto &entry : result.entries) {
        EXPECT_EQ(entry.from.name(), entry.to.name());
        EXPECT_TRUE(entry.tp_changed || entry.lat_changed);
        EXPECT_EQ(entry.tp_changed, entry.from.tpMeasured() !=
                                        entry.to.tpMeasured());
        EXPECT_EQ(entry.lat_changed, entry.from.maxLatency() !=
                                         entry.to.maxLatency());
    }
}

TEST(Analytics, DirectionsPartitionTheChangedSet)
{
    auto catalog = nineCatalog();
    db::AnalyticsQuery q;
    q.from = uarch::UArch::Nehalem;
    q.to = uarch::UArch::Skylake;
    q.metric = db::AnalyticsQuery::Metric::Tp;

    q.direction = db::AnalyticsQuery::Direction::Changed;
    auto changed = catalog->analytics(q);
    q.direction = db::AnalyticsQuery::Direction::Regressed;
    auto regressed = catalog->analytics(q);
    q.direction = db::AnalyticsQuery::Direction::Improved;
    auto improved = catalog->analytics(q);

    EXPECT_EQ(changed.matched,
              regressed.matched + improved.matched);
    for (const auto &entry : regressed.entries)
        EXPECT_GT(entry.to.tpMeasured(), entry.from.tpMeasured());
    for (const auto &entry : improved.entries)
        EXPECT_LT(entry.to.tpMeasured(), entry.from.tpMeasured());
}

TEST(Analytics, FilterAndLimitApply)
{
    auto catalog = nineCatalog();
    db::AnalyticsQuery q;
    q.from = uarch::UArch::Nehalem;
    q.to = uarch::UArch::Skylake;
    q.direction = db::AnalyticsQuery::Direction::Changed;
    auto unfiltered = catalog->analytics(q);
    ASSERT_GT(unfiltered.entries.size(), 1u);

    q.filter.mnemonic = "ADD";
    auto filtered = catalog->analytics(q);
    EXPECT_LT(filtered.common, unfiltered.common);
    for (const auto &entry : filtered.entries)
        EXPECT_EQ(entry.from.mnemonic(), "ADD");

    q.filter.mnemonic.reset();
    q.limit = 1;
    auto capped = catalog->analytics(q);
    EXPECT_EQ(capped.entries.size(), 1u);
    // Counts stay exact even when entry reporting is capped.
    EXPECT_EQ(capped.matched, unfiltered.matched);
    EXPECT_EQ(capped.common, unfiltered.common);
}

} // namespace
} // namespace uops::test
