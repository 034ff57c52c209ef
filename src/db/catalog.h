/**
 * @file
 * The sharded storage engine: per-uarch snapshot shards behind one
 * queryable catalog, with generation-numbered manifests, incremental
 * splicing, and atomic hot-swap friendly ownership.
 *
 * uops.info is a living dataset — the pipeline re-runs per
 * microarchitecture and republishes without rebuilding the world. The
 * monolithic InstructionDatabase snapshot could not express that: one
 * blob, rewritten wholesale, reloaded only by restarting the server.
 * The catalog splits storage at the natural boundary, one shard
 * (a single-uarch InstructionDatabase) per microarchitecture:
 *
 *   catalog-dir/
 *     manifest            generation number + per-shard (uarch,
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
 * A catalog answers the same queries the monolith did, routing by
 * uarch where possible and merging across shards (in chronological
 * uarch order, matching the monolith's arch-major row order) where
 * not. Catalogs are immutable once built; "mutation" is constructing
 * the next generation.
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
 * name, a malformed manifest. Derived from FatalError so generic
 * handlers keep working; callers that can degrade (server /reload,
 * `uopsq migrate`) catch it and keep the previous generation.
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

/** Cross-uarch difference of one variant, catalog-level. */
struct CatalogDiffEntry
{
    RecordView a;
    RecordView b;
    bool tp_differs = false;
    bool ports_differ = false;
    bool latency_differs = false;
};

struct CatalogDiff
{
    size_t common = 0;
    std::vector<CatalogDiffEntry> changed;
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
    /** Build from per-uarch shards (each must be single-uarch; they
     *  are sorted into chronological uarch order). Hashes and record
     *  counts are computed for entries that carry none. */
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

    // ---- monolith-equivalent queries --------------------------------

    size_t numRecords() const;
    size_t numRecords(uarch::UArch arch) const;
    std::vector<uarch::UArch> uarches() const;

    std::optional<RecordView> find(uarch::UArch arch,
                                   std::string_view name) const;

    /** All records with this variant name, in uarch order. */
    std::vector<RecordView> findByName(std::string_view name) const;

    /**
     * Indexed search. Routed to a single shard when the query
     * constrains the uarch; otherwise per-shard results are
     * concatenated in chronological uarch order — exactly the row
     * order of the old arch-major monolith. Query::limit spans
     * shards.
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
     * Split a multi-uarch monolith into per-uarch shards (the v2 ->
     * v3 migration and the XML ingest). Lossless and deterministic:
     * each shard's bytes are identical to what a fresh single-uarch
     * sweep of the same results would produce.
     */
    static std::shared_ptr<const DatabaseCatalog>
    fromMonolith(const InstructionDatabase &db, uint64_t generation);

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

/** Legacy (pre-numbered) manifest file name inside a catalog
 *  directory. Still read as a fallback candidate; no longer
 *  written. */
extern const char *const kManifestFile;

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
 * Load a catalog directory (anything else, a v2 snapshot file
 * included, is a CatalogError naming `uopsq migrate`): every shard is
 * mapped, checked and bound in place. Shard content is hash-verified
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

/** Newest generation any manifest in the directory claims (cheap
 *  name/header scan, no verification; nullopt when there is no
 *  manifest at all). Powers `serve --watch`. */
std::optional<uint64_t>
readCatalogGeneration(const std::string &dir);

/**
 * Lossless v2 -> v3 migration, the only way a v2 monolith enters the
 * store: load the monolith at @p snapshot_path, shard it per uarch,
 * and write a generation-1 catalog under @p dir. v1 snapshots are
 * still refused (their doubles cannot be reproduced bit-exactly).
 */
void migrateSnapshot(const std::string &snapshot_path,
                     const std::string &dir);

// ---- sweep integration -----------------------------------------------

/**
 * Streaming sweep -> sharded catalog sink (core::SweepSink): each
 * successful characterization is appended to its uarch's shard the
 * moment the engine releases it — no XML tree, no retained report
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
