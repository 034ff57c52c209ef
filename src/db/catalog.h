/**
 * @file
 * The sharded storage engine: per-uarch snapshot shards behind one
 * queryable catalog, with generation-numbered manifests, incremental
 * splicing, and atomic hot-swap friendly ownership.
 *
 * uops.info is a living dataset — the pipeline re-runs per
 * microarchitecture and republishes without rebuilding the world, and
 * its results are published per microarchitecture (one <uopsInfo>
 * element per uarch in the Section 6.4 export). The catalog stores
 * them at that natural boundary, one immutable shard (a single-uarch
 * InstructionDatabase) per microarchitecture:
 *
 *   catalog-dir/
 *     manifest.<gen>      generation number + per-shard (uarch,
 *                         record count, content hash, file name)
 *     SKL-<hash16>.shard  version-3 shard containers, named by the
 *     NHM-<hash16>.shard  FNV-1a hash of their bytes
 *
 * Content-addressed shard files make every useful property fall out:
 * an incremental re-sweep writes only the shards it re-characterized
 * (unchanged uarches keep their file, hash-verified), the manifest
 * swap is a single atomic rename, and a serving process can mmap
 * shards zero-copy without fear of in-place rewrites. Shards are held
 * as shared_ptr<const InstructionDatabase>, so a spliced catalog
 * shares untouched shards with its predecessor and a hot-swapped
 * server generation keeps old shards alive until the last in-flight
 * request drops its handle.
 *
 * A catalog is the cross-uarch query surface: it routes by uarch where
 * possible and concatenates per-shard answers in chronological uarch
 * order where not. Catalogs are immutable once built; "mutation" is
 * constructing the next generation (splice, publishShards).
 */

#ifndef UOPS_DB_CATALOG_H
#define UOPS_DB_CATALOG_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/snapshot.h"

namespace uops::db {

/**
 * The catalog store is unusable or inconsistent: no loadable
 * generation, a content-addressed file whose bytes disagree with its
 * name, a malformed manifest, a path that is not a catalog
 * directory. Derived from FatalError so generic handlers keep
 * working; callers that can degrade (server /reload) catch it and
 * keep the previous generation.
 */
class CatalogError : public FatalError
{
  public:
    explicit CatalogError(const std::string &msg) : FatalError(msg) {}
};

/**
 * What opening a catalog directory had to do to produce a consistent
 * generation. Empty (recovered == false, no events) on the happy
 * path. Filled — and garbage collection of rejected manifests,
 * orphaned .tmp files, and unreferenced shards enabled — when the
 * caller passes one to loadCatalogDir; loads without a report never
 * delete anything, so a reader cannot race a publisher mid-commit
 * into destroying its work.
 */
struct RecoveryReport
{
    /** A newer candidate generation existed but failed verification;
     *  an older fully-verified one is being served instead. */
    bool recovered = false;

    /** Generation actually loaded. */
    uint64_t generation = 0;

    /** Generations whose manifest or shards failed verification,
     *  newest first. */
    std::vector<uint64_t> rejected_generations;

    /** Human-readable log of rejections and repairs, in order. */
    std::vector<std::string> events;

    /** Files garbage-collected from the catalog directory. */
    std::vector<std::string> removed_files;

    /** One line: "generation N" or "recovered to generation N
     *  (rejected M, removed K files)". */
    std::string summary() const;
};

/** How shard containers are brought into memory. Shards are always
 *  mapped; the enum survives only as a loadCatalogDir parameter. */
enum class LoadMode {
    Mmap,     ///< zero-copy: columns point into the mapped file
};

/** One microarchitecture's shard inside a catalog. */
struct ShardEntry
{
    uarch::UArch arch = uarch::UArch::Nehalem;
    std::shared_ptr<const InstructionDatabase> db;
    uint64_t records = 0;
    uint64_t hash = 0;        ///< FNV-1a 64 of the shard file bytes
    std::string file;         ///< file name inside the catalog dir
                              ///  (empty for in-memory shards)
};

/** What changed between two uarches' shards (DatabaseCatalog::diff). */
struct CatalogDiff
{
    /** One variant present on both sides whose records differ. */
    struct Entry
    {
        RecordView a;
        RecordView b;
        bool tp_differs = false;
        bool ports_differ = false;
        bool latency_differs = false;
    };

    size_t common = 0;               ///< variants present on both
    std::vector<Entry> changed;      ///< differing variants only
    std::vector<std::string> only_a;
    std::vector<std::string> only_b;
};

/**
 * Cross-generation analytics: which instructions got slower (or
 * faster) between two microarchitecture generations — the
 * "uops.info changelog" view. Unlike diff(), which reports any
 * difference, analytics is direction- and metric-aware and composes
 * with the scan executor's predicates, so "SSE2 instructions whose
 * throughput regressed from HSW to SKL" is one query.
 */
struct AnalyticsQuery
{
    uarch::UArch from = uarch::UArch::Nehalem;
    uarch::UArch to = uarch::UArch::Nehalem;

    enum class Metric : uint8_t { Tp, Latency, Any };
    enum class Direction : uint8_t { Regressed, Improved, Changed };

    Metric metric = Metric::Any;
    Direction direction = Direction::Regressed;

    /** Scan filter applied to both sides before the merge (mnemonic,
     *  extension, port constraints, ranges...). Its arch and limit
     *  fields are ignored — both sides are scanned whole and the cap
     *  below applies to merged entries. */
    Query filter;

    /** Cap on reported entries (matched counts are exact anyway). */
    size_t limit = SIZE_MAX;
};

/** One variant present on both sides whose metrics moved. */
struct AnalyticsEntry
{
    RecordView from;
    RecordView to;
    bool tp_changed = false;
    bool lat_changed = false;
};

struct AnalyticsResult
{
    size_t common = 0;   ///< variants on both sides (post-filter)
    size_t matched = 0;  ///< entries matching metric+direction
    std::vector<AnalyticsEntry> entries;  ///< name-ordered, capped
};

class DatabaseCatalog
{
  public:
    /** Build from per-uarch shards (each entry's arch must be its
     *  shard's; they are sorted into chronological uarch order).
     *  Hashes and record counts are computed for entries that carry
     *  none. */
    DatabaseCatalog(std::vector<ShardEntry> shards,
                    uint64_t generation);

    DatabaseCatalog(const DatabaseCatalog &) = delete;
    DatabaseCatalog &operator=(const DatabaseCatalog &) = delete;

    uint64_t generation() const { return generation_; }
    const std::vector<ShardEntry> &shards() const { return shards_; }

    /** One digest over the generation's content: FNV-1a folded over
     *  every (uarch, shard content hash) pair in uarch order. Two
     *  catalogs serving identical shard bytes share it regardless of
     *  generation number; any re-characterized shard changes it. The
     *  serving layer derives per-generation ETags from this at
     *  swapCatalog time (the blob-store build hook), so HTTP
     *  revalidation is keyed by the same content addresses the
     *  storage engine verifies on load. */
    uint64_t contentHash() const;

    /** The shard for one uarch; nullptr when absent. */
    const InstructionDatabase *shard(uarch::UArch arch) const;

    // ---- cross-shard queries ----------------------------------------

    size_t numRecords() const;
    size_t numRecords(uarch::UArch arch) const;
    std::vector<uarch::UArch> uarches() const;

    /** All records with this variant name, in uarch order. */
    std::vector<RecordView> findByName(std::string_view name) const;

    /**
     * Indexed search. Routed to a single shard when the query
     * constrains the uarch; otherwise per-shard results are
     * concatenated in chronological uarch order (arch-major).
     * Query::limit spans shards.
     */
    std::vector<RecordView> search(const Query &query) const;

    CatalogDiff diff(uarch::UArch a, uarch::UArch b) const;

    /** Two filtered shard scans plus a name merge; see
     *  AnalyticsQuery. Empty result when either uarch is absent. */
    AnalyticsResult analytics(const AnalyticsQuery &query) const;

    core::CharacterizationSet
    toCharacterizationSet(uarch::UArch arch,
                          const isa::InstrDb &instr_db) const;

    // ---- construction helpers ---------------------------------------

    /**
     * The XML build path: one shard per uarch a re-parsed Section 6.4
     * export names (a uarch named twice appends to its shard in
     * document order), bit-identical to what a sweep of the same
     * results writes.
     *
     * @param resolve Instruction database used to recover the ISA
     *        extension of each variant (the results XML does not carry
     *        it). Pass the one the results were produced from to
     *        obtain bit-identical shards; nullptr records the
     *        extension as "?".
     * @throws FatalError on an unknown uarch, a port set outside its
     *         uarch's ports, or a variant named twice for one uarch.
     */
    static std::vector<ShardEntry>
    shardsFromResults(const isa::ResultsDoc &doc,
                      const isa::InstrDb *resolve);

    /**
     * Next generation: @p base with @p fresh shards spliced in (per
     * uarch, replacing or adding); untouched shards are shared, not
     * copied. This is the commit step of an incremental sweep.
     */
    static std::shared_ptr<const DatabaseCatalog>
    splice(const DatabaseCatalog &base,
           std::vector<ShardEntry> fresh);

  private:
    std::vector<ShardEntry> shards_;   ///< uarch-ascending
    uint64_t generation_ = 0;
};

// ---- directory store -------------------------------------------------

/** Per-generation manifest file name ("manifest.0000000007"). Each
 *  save commits one of these; the newest fully-verified one wins on
 *  load, so an older generation remains a durable fallback. */
std::string manifestFileName(uint64_t generation);

/**
 * Persist @p catalog under @p dir (created if missing): every shard
 * whose content-addressed file is not already present is written
 * (atomically, fsynced), present files are hash-verified, and the
 * generation's manifest is committed by one atomic rename — a
 * concurrent reader sees either the old or the new generation, never
 * a torn one. Shard files of older generations are left in place (a
 * serving process may still have them mapped); only manifests older
 * than the newest few are pruned.
 */
void saveCatalogDir(const DatabaseCatalog &catalog,
                    const std::string &dir);

/**
 * Load a catalog directory: the newest numbered manifest that
 * verifies, over version-3 shards. Every shard is mapped, checked and
 * bound in place. A file path (an old single-file snapshot) or a
 * directory whose only manifest is an unnumbered `manifest` is a
 * CatalogError that names what it found; such stores are rebuilt by
 * re-ingesting the results XML. Shard content is hash-verified
 * against the manifest (@p verify_hashes), so a spliced catalog's
 * untouched shards are provably the bytes the previous generation
 * wrote.
 *
 * A bad candidate — truncated or corrupt manifest, missing or
 * hash-mismatched shard — is *recoverable*: the loader falls back to
 * the newest older generation that verifies fully. Pass @p report to
 * learn what was rejected and to enable garbage collection of the
 * rejected manifests, stray .tmp files, and unreferenced shards.
 * Only a CatalogError or StoreError proves a candidate dead; an open,
 * mmap or read failure skips it for this load only.
 * Throws CatalogError only when no generation verifies at all.
 */
std::shared_ptr<const DatabaseCatalog>
loadCatalogDir(const std::string &dir,
               LoadMode mode = LoadMode::Mmap,
               bool verify_hashes = true,
               RecoveryReport *report = nullptr);

/** Newest generation a numbered manifest's file name claims (cheap
 *  name scan, no verification; nullopt when there is none). Powers
 *  `serve --watch`. */
std::optional<uint64_t>
readCatalogGeneration(const std::string &dir);

/**
 * Publish @p shards under @p dir (created if missing): spliced onto
 * the directory's current generation as the next one when it holds a
 * catalog, else written as generation 1. Returns what was published.
 */
std::shared_ptr<const DatabaseCatalog>
publishShards(const std::string &dir, std::vector<ShardEntry> shards);

// ---- sweep integration -----------------------------------------------

/**
 * Streaming sweep -> sharded catalog sink (core::SweepSink), the
 * streaming build path: each successful characterization is appended
 * to its uarch's shard the moment the engine releases it — no XML tree, no retained report
 * (pair with keep_results = false). Delivery order (uarch-major,
 * variant-id) makes each shard bit-identical to a single-uarch sweep
 * of the same variants — the property that lets an incremental
 * re-sweep reproduce a full sweep's bytes.
 */
class CatalogSweepIngestor final : public core::SweepSink
{
  public:
    CatalogSweepIngestor() = default;
    ~CatalogSweepIngestor() override { finishOnce(); }

    void onVariant(uarch::UArch arch,
                   const core::VariantOutcome &outcome) override;
    void finish() override { finishOnce(); }

    size_t numIngested() const { return ingested_; }

    /** The finished shards (call after the sweep returned). An arch
     *  swept with zero successful variants still yields an (empty)
     *  shard, so a re-sweep can erase a uarch deliberately. */
    std::vector<ShardEntry> takeShards();

    /** Pre-register @p arch so it yields a shard even when the sweep
     *  produces no successful outcome for it. */
    void declareArch(uarch::UArch arch);

  private:
    void finishOnce();

    std::map<uarch::UArch, std::unique_ptr<InstructionDatabase>>
        shards_;
    size_t ingested_ = 0;
    bool finished_ = false;
};

/**
 * Incremental sweep: characterize @p arches (with @p options) and
 * splice the resulting shards into @p base. Pass base = nullptr for
 * a full fresh catalog (generation 1). The sweep report is returned
 * through @p report_out when non-null.
 */
std::shared_ptr<const DatabaseCatalog>
runCatalogSweep(const isa::InstrDb &instrs,
                const std::vector<uarch::UArch> &arches,
                core::BatchOptions options,
                const DatabaseCatalog *base,
                core::CharacterizationReport *report_out = nullptr);

} // namespace uops::db

#endif // UOPS_DB_CATALOG_H
