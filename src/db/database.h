/**
 * @file
 * The queryable instruction-performance database.
 *
 * The paper's public artifact is not the characterization algorithms —
 * it is uops.info, a continuously queried database of per-instruction
 * latency / throughput / port-usage results, published per
 * microarchitecture. This module is the consumer-side counterpart of
 * the batch engine (core/batch.h): an InstructionDatabase is one
 * uarch's shard of those results, answering the read-heavy queries
 * downstream tools (uiCA-style simulators, throughput predictors)
 * issue against uops.info. The sharded catalog (catalog.h) holds one
 * per uarch.
 *
 * Storage is columnar: one flat array per field, with all strings
 * interned in a shared pool and all variable-length payloads (port
 * usage entries, latency pairs) packed into flat side arrays
 * referenced by (offset, count). This keeps point lookups and column
 * scans cache-friendly and makes the shard format (snapshot.h) a
 * direct dump of the arrays. Columns are owned-or-borrowed
 * (support/column.h): a shard being built grows owned vectors, while
 * the shard loader binds every column straight into the memory
 * mapping that the database keeps alive.
 *
 * A shard is immutable once built. It is built in exactly one of
 * three ways, all of which take the uarch: from one
 * CharacterizationSet (fromSet), from a re-parsed Section 6.4 export
 * (DatabaseCatalog::shardsFromResults), or streamed from a running
 * runBatchSweep (CatalogSweepIngestor). All three produce
 * *bit-identical* shards for the same results. The guarantee is by
 * representation, not by canonicalization: every cycle value in the
 * pipeline is a fixed-point Cycles (hundredths of a core cycle, the
 * paper's reporting granularity), stored here as a raw integer column,
 * so equality is integer equality and no text round trip is involved
 * anywhere. The golden round-trip tests in tests/db_test.cpp pin the
 * property.
 *
 * All query methods are const and safe to call concurrently from any
 * number of threads.
 */

#ifndef UOPS_DB_DATABASE_H
#define UOPS_DB_DATABASE_H

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

class InstructionDatabase
{
  public:
    /** An empty shard for @p arch. */
    explicit InstructionDatabase(uarch::UArch arch) : uarch_(arch) {}

    /** Not copyable or movable: the in-memory indexes hold views into
     *  the string pool (builders hand out unique_ptr instead). */
    InstructionDatabase(const InstructionDatabase &) = delete;
    InstructionDatabase &operator=(const InstructionDatabase &) = delete;

    /** The shard of one uarch's results from the in-memory pipeline.
     *  @throws FatalError when the set names one variant twice. */
    static std::unique_ptr<InstructionDatabase>
    fromSet(const core::CharacterizationSet &set);

    // ---- queries -----------------------------------------------------

    uarch::UArch arch() const { return uarch_; }

    size_t numRecords() const { return arch_.size(); }

    /** Point lookup by variant name. */
    std::optional<uint32_t> find(std::string_view name) const;

    /** Indexed + columnar-scan search. */
    std::vector<uint32_t> search(const Query &query) const;

    RecordView record(uint32_t row) const { return {*this, row}; }

    /**
     * Rebuild this shard's CharacterizationSet, resolving variant
     * pointers against @p instr_db; rows whose variant name is unknown
     * there are skipped. Powers the /predict endpoint
     * (core::PerformancePredictor input).
     */
    core::CharacterizationSet
    toCharacterizationSet(const isa::InstrDb &instr_db) const;

  private:
    friend class RecordView;
    friend class ScanExecutor;
    friend class CatalogSweepIngestor;
    friend class DatabaseCatalog;
    friend struct SnapshotCodec;

    /** Canonical record, shared by every build path. */
    struct Canonical
    {
        std::string name, mnemonic, extension;
        uarch::PortUsage usage;
        Cycles tp_measured;
        std::optional<Cycles> tp_breakers, tp_slow, tp_ports;
        std::vector<isa::ResultLatency> lats;
        std::optional<Cycles> same_reg, store_rt;
    };

    void append(const Canonical &rec);
    void appendCharacterization(const core::InstrCharacterization &c);
    uint32_t intern(std::string_view s);
    std::string_view str(uint32_t id) const;
    void rebuildIndexes();

    /** The uarch every record belongs to (the shard header's id). */
    uarch::UArch uarch_;

    // ---- columnar storage (everything below is serialized) ----------

    /** String pool: bytes + (offset, length) spans, id = span index. */
    BytePool pool_;
    Column<uint32_t> str_off_, str_len_;

    /** Per-record columns (parallel, row-indexed). arch_ repeats the
     *  shard's uarch id in every row (part of the container format). */
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

    /** Keep-alive for the mapping borrowed columns point into (null
     *  for built shards). */
    std::shared_ptr<const void> backing_;

    // ---- in-memory indexes (rebuilt, never serialized) ---------------

    std::map<std::string, uint32_t, std::less<>> intern_map_;

    std::map<std::string_view, uint32_t> by_name_;  ///< name-sorted
    std::map<std::string_view, std::vector<uint32_t>> by_mnemonic_;
    std::map<std::string_view, std::vector<uint32_t>> by_extension_;
    std::vector<uint32_t> tp_order_;   ///< rows by tp_measured
    std::vector<uint32_t> lat_order_;  ///< rows by max_latency
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
