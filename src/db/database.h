/**
 * @file
 * The queryable instruction-performance database.
 *
 * The paper's public artifact is not the characterization algorithms —
 * it is uops.info, a continuously queried database of per-instruction
 * latency / throughput / port-usage results. This module is the
 * consumer-side counterpart of the batch engine (core/batch.h): it
 * ingests characterization results and answers the read-heavy queries
 * downstream tools (uiCA-style simulators, throughput predictors)
 * issue against uops.info.
 *
 * Storage is columnar: one flat array per field, with all strings
 * interned in a shared pool and all variable-length payloads (port
 * usage entries, latency pairs) packed into flat side arrays
 * referenced by (offset, count). This keeps point lookups and column
 * scans cache-friendly and makes the snapshot format (snapshot.h) a
 * direct dump of the arrays. Columns are owned-or-borrowed
 * (support/column.h): ingest grows owned vectors, while the snapshot
 * loader binds every column straight into the loaded buffer (usually
 * a memory mapping) that the database keeps alive; the first mutation
 * of a borrowed column copies it out, so a mapped database is never
 * written through.
 *
 * Three ingest paths produce *bit-identical* databases for the same
 * results: the in-memory path (a CharacterizationSet / batch report),
 * the XML path (a re-parsed Section 6.4 export), and the streaming
 * path (CatalogSweepIngestor attached to a running runBatchSweep),
 * whose per-uarch shards equal the split of the other two. The
 * guarantee is by representation, not by canonicalization: every
 * cycle value in the pipeline is a fixed-point Cycles (hundredths of
 * a core cycle, the paper's reporting granularity), stored here as a
 * raw integer column, so equality is integer equality and no text
 * round trip is involved anywhere. The golden round-trip tests in
 * tests/db_test.cpp pin the property.
 *
 * All query methods are const and safe to call concurrently from any
 * number of threads once ingestion is finished; ingest/load must not
 * race with readers.
 */

#ifndef UOPS_DB_DATABASE_H
#define UOPS_DB_DATABASE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.h"
#include "isa/results_xml.h"
#include "support/column.h"
#include "support/cycles.h"
#include "uarch/timing.h"

namespace uops::db {

/** Search predicate; unset fields do not constrain. */
struct Query
{
    std::optional<uarch::UArch> arch;
    std::optional<std::string> name;       ///< Exact variant name.
    std::optional<std::string> mnemonic;   ///< Exact mnemonic.
    std::optional<std::string> extension;  ///< ISA set, e.g. "SSE2".

    /** Records whose port-usage union covers all these ports
     *  ("everything that uses p0+p5"). 0: no constraint. */
    uarch::PortMask uses_ports = 0;

    /** Records whose port-usage union stays within these ports
     *  ("everything dispatching only to p0/p1/p5"). */
    std::optional<uarch::PortMask> ports_subset;

    /** Records whose port-usage union equals exactly this mask. */
    std::optional<uarch::PortMask> ports_exact;

    /** Measured-throughput range (inclusive), in the database's
     *  fixed-point representation. Double-valued user input converts
     *  once at the boundary via tpBoundMin / tpBoundMax. */
    std::optional<Cycles> tp_min, tp_max;

    /** Max-latency range (inclusive, over all operand pairs). */
    std::optional<int> lat_min, lat_max;

    /** Fused-uop-count range (inclusive). */
    std::optional<int> uops_min, uops_max;

    /** RecordFlag bits that must all be present (e.g. "has a
     *  with-blocking-instructions throughput"). 0: no constraint. */
    uint8_t has_flags = 0;

    /** Result cap (applied after filtering, in row order). */
    size_t limit = SIZE_MAX;
};

/**
 * Fixed-point bound of a double-valued throughput constraint: the
 * smallest (Min) / largest (Max) representable hundredth-of-a-cycle
 * inside [v, +inf) / (-inf, v]. Exact hundredths (up to binary
 * representation slop, e.g. 0.33 * 100 = 32.999...96) map to
 * themselves, so a converted range matches records precisely where a
 * double comparison against toDouble() would. The conversion happens
 * once where doubles enter the system (HTTP parameters, CLI flags);
 * Query itself carries Cycles.
 *
 * @throws FatalError on NaN (the service layer answers 400).
 */
Cycles tpBoundMin(double v);
Cycles tpBoundMax(double v);

class InstructionDatabase;

/** Read-only view of one record (row) of the database. */
class RecordView
{
  public:
    RecordView(const InstructionDatabase &db, uint32_t row)
        : db_(&db), row_(row)
    {
    }

    uint32_t row() const { return row_; }
    uarch::UArch arch() const;
    std::string_view name() const;
    std::string_view mnemonic() const;
    std::string_view extension() const;

    /** Inferred port usage (Algorithm 1 result). */
    uarch::PortUsage portUsage() const;

    /** Union mask over all port-usage entries. */
    uarch::PortMask portUnion() const;

    int uopCount() const;
    int maxLatency() const;

    Cycles tpMeasured() const;
    std::optional<Cycles> tpWithBreakers() const;
    std::optional<Cycles> tpSlow() const;
    std::optional<Cycles> tpFromPorts() const;

    std::vector<isa::ResultLatency> latencies() const;
    std::optional<Cycles> sameRegCycles() const;
    std::optional<Cycles> storeRoundTrip() const;

  private:
    const InstructionDatabase *db_;
    uint32_t row_;
};

/** One cross-uarch difference for a variant present on both sides. */
struct DiffEntry
{
    uint32_t row_a = 0;
    uint32_t row_b = 0;
    bool tp_differs = false;
    bool ports_differ = false;
    bool latency_differs = false;
};

/** Field-by-field record comparison shared by the monolith diff and
 *  the catalog diff — one definition of "changed". Fills the three
 *  *_differs flags of @p entry (a DiffEntry or CatalogDiffEntry). */
template <typename Entry>
void
compareRecords(const RecordView &a, const RecordView &b, Entry &entry)
{
    entry.tp_differs = a.tpMeasured() != b.tpMeasured();
    entry.ports_differ = !(a.portUsage() == b.portUsage());
    auto lats_a = a.latencies();
    auto lats_b = b.latencies();
    entry.latency_differs = lats_a.size() != lats_b.size();
    for (size_t i = 0; !entry.latency_differs && i < lats_a.size();
         ++i) {
        const auto &la = lats_a[i];
        const auto &lb = lats_b[i];
        entry.latency_differs =
            la.src_op != lb.src_op || la.dst_op != lb.dst_op ||
            la.cycles != lb.cycles ||
            la.upper_bound != lb.upper_bound ||
            la.slow_cycles != lb.slow_cycles;
    }
}

/** Result of diff(): what changed between two microarchitectures. */
struct DiffResult
{
    size_t common = 0;                 ///< variants present on both
    std::vector<DiffEntry> changed;    ///< differing variants only
    std::vector<std::string> only_a;   ///< variant names unique to a
    std::vector<std::string> only_b;   ///< variant names unique to b
};

class InstructionDatabase
{
  public:
    InstructionDatabase() = default;

    /** Not copyable or movable: the in-memory indexes hold views into
     *  the string pool (snapshot load hands out unique_ptr instead). */
    InstructionDatabase(const InstructionDatabase &) = delete;
    InstructionDatabase &operator=(const InstructionDatabase &) = delete;

    // ---- ingestion ---------------------------------------------------

    /** Ingest one uarch's results from the in-memory pipeline. */
    void ingest(const core::CharacterizationSet &set);

    /** Ingest every uarch of a batch-sweep report (ok outcomes). */
    void ingest(const core::CharacterizationReport &report);

    /**
     * Ingest a parsed results-XML document (Section 6.4).
     *
     * @param resolve Instruction database used to recover the ISA
     *        extension of each variant (the results XML does not carry
     *        it). Pass the same database the results were produced
     *        from to obtain a bit-identical ingest; nullptr records
     *        the extension as "?".
     */
    void ingestResults(const isa::ResultsDoc &doc,
                       const isa::InstrDb *resolve);

    // ---- queries -----------------------------------------------------

    size_t numRecords() const { return arch_.size(); }

    /** Microarchitectures present, in chronological (enum) order. */
    std::vector<uarch::UArch> uarches() const;

    /** Number of records stored for one uarch. */
    size_t numRecords(uarch::UArch arch) const;

    /** Point lookup by (uarch, variant name). */
    std::optional<uint32_t> find(uarch::UArch arch,
                                 std::string_view name) const;

    /** All rows (any uarch) with this variant name. */
    std::vector<uint32_t> findByName(std::string_view name) const;

    /** Indexed + columnar-scan search. */
    std::vector<uint32_t> search(const Query &query) const;

    /** What changed for variants present on both uarches. */
    DiffResult diff(uarch::UArch a, uarch::UArch b) const;

    RecordView record(uint32_t row) const { return {*this, row}; }

    /**
     * Rebuild a CharacterizationSet for one uarch from the stored
     * records, resolving variant pointers against @p instr_db; rows
     * whose variant name is unknown there are skipped. Powers the
     * /predict endpoint (core::PerformancePredictor input).
     */
    core::CharacterizationSet
    toCharacterizationSet(uarch::UArch arch,
                          const isa::InstrDb &instr_db) const;

  private:
    friend class RecordView;
    friend class ScanExecutor;
    friend class CatalogSweepIngestor;
    friend class DatabaseCatalog;
    friend struct SnapshotCodec;

    /** Canonical record, shared by every ingest path. */
    struct Canonical
    {
        uint8_t arch = 0;
        std::string name, mnemonic, extension;
        uarch::PortUsage usage;
        Cycles tp_measured;
        std::optional<Cycles> tp_breakers, tp_slow, tp_ports;
        std::vector<isa::ResultLatency> lats;
        std::optional<Cycles> same_reg, store_rt;
    };

    void append(const Canonical &rec);
    void appendCharacterization(uint8_t arch,
                                const core::InstrCharacterization &c);
    void appendSet(const core::CharacterizationSet &set);
    uint32_t intern(std::string_view s);
    std::string_view str(uint32_t id) const;
    void rebuildIndexes();

    // ---- columnar storage (everything below is serialized) ----------

    /** String pool: bytes + (offset, length) spans, id = span index. */
    BytePool pool_;
    Column<uint32_t> str_off_, str_len_;

    /** Per-record columns (parallel, row-indexed). */
    Column<uint8_t> arch_;
    Column<uint32_t> name_, mnemonic_, ext_;        ///< string ids
    Column<uint16_t> port_union_;
    Column<uint16_t> uop_count_;
    Column<uint16_t> max_latency_;
    Column<uint8_t> flags_;                         ///< presence bits
    /** Cycle columns hold raw fixed-point integers (Cycles is a
     *  single int64, trivially copyable), dumped as-is by snapshots. */
    Column<Cycles> tp_measured_, tp_breakers_, tp_slow_, tp_ports_;
    Column<Cycles> same_reg_, store_rt_;
    Column<uint32_t> ports_off_, lat_off_;
    Column<uint16_t> ports_n_, lat_n_;

    /** Flat pools for variable-length payloads. */
    Column<uint16_t> pu_mask_, pu_count_;           ///< port usage
    Column<int16_t> lat_src_, lat_dst_;             ///< latency pairs
    Column<uint8_t> lat_flags_;
    Column<Cycles> lat_cycles_, lat_slow_;

    /** Keep-alive for the mapped buffer borrowed columns point into
     *  (null for owned databases). */
    std::shared_ptr<const void> backing_;

    // ---- in-memory indexes (rebuilt, never serialized) ---------------

    std::map<std::string, uint32_t, std::less<>> intern_map_;

    /** Keyed name-first so findByName is one equal-range walk and
     *  find(arch, name) stays a point lookup. */
    std::map<std::pair<std::string_view, uint8_t>, uint32_t>
        by_name_arch_;
    std::map<std::string_view, std::vector<uint32_t>> by_mnemonic_;
    std::map<std::string_view, std::vector<uint32_t>> by_extension_;
    std::vector<uint32_t> tp_order_;   ///< rows by tp_measured
    std::vector<uint32_t> lat_order_;  ///< rows by max_latency

    /** Row run of one uarch. Ingest appends per-uarch blocks, so a
     *  uarch's rows are normally one contiguous [begin, end) and a
     *  uarch-filtered scan becomes a range restriction (scan.cpp);
     *  contiguous=false (interleaved rows) falls back to a per-row
     *  arch compare. begin == end: uarch absent. */
    struct ArchRun
    {
        uint32_t begin = 0, end = 0;
        bool contiguous = false;
    };
    std::array<ArchRun, 256> arch_runs_{};
};

/** Presence bits in the per-record flags_ column. */
enum RecordFlag : uint8_t {
    kHasTpBreakers = 1u << 0,
    kHasTpSlow = 1u << 1,
    kHasTpPorts = 1u << 2,
    kHasSameReg = 1u << 3,
    kHasStoreRt = 1u << 4,
};

/** Bits in the latency-pair lat_flags_ pool. */
enum LatencyFlag : uint8_t {
    kLatUpperBound = 1u << 0,
    kLatHasSlow = 1u << 1,
};

} // namespace uops::db

#endif // UOPS_DB_DATABASE_H
