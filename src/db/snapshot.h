/**
 * @file
 * Versioned binary container formats for the instruction database.
 *
 * Two container kinds share one layout family (little-endian,
 * mmap-friendly, every array 8-byte aligned):
 *
 *   monolith (version 2)
 *     header   8-byte magic "UOPSDB\x1a\n", u32 version, u32 endian
 *              tag (0x0A0B0C0D as written by the producer — a reader
 *              on a byte-swapped host rejects the file instead of
 *              misreading it), u64 record count
 *     arrays   the columnar arrays of InstructionDatabase, in a fixed
 *              order, each as: u64 element count, raw element bytes,
 *              zero padding to the next 8-byte boundary
 *
 *   shard (version 3)
 *     identical, plus one u64 microarchitecture id after the record
 *     count. A shard holds exactly one uarch's records — the unit of
 *     the sharded catalog store (catalog.h), which writes one shard
 *     file per uarch plus a manifest.
 *
 * Version 2 remains readable (and writable, for migration tests);
 * v1 files (IEEE-double cycle columns) are refused with an explicit
 * error. Because every array is a contiguous raw dump aligned to 8
 * bytes, one reader serves every load: it checks the container and
 * binds each column in place, into a file mapping
 * (loadShardMapped, loadSnapshotFile) or an owned 8-byte-aligned
 * buffer (loadSnapshotBytes), which the database keeps alive. The
 * in-memory query indexes are *not* serialized — they are
 * deterministically rebuilt on load, so two databases with equal
 * container bytes answer every query identically.
 *
 * Containers are bit-exact: save(load(save(db))) == save(db), and a
 * database ingested from XML produces the same bytes as one ingested
 * in memory from the same results (see tests/db_test.cpp).
 */

#ifndef UOPS_DB_SNAPSHOT_H
#define UOPS_DB_SNAPSHOT_H

#include <iosfwd>
#include <memory>
#include <string>

#include "db/database.h"
#include "support/mmap_file.h"
#include "support/status.h"

namespace uops::db {

/**
 * A container failed validation on load: bad magic, unsupported
 * version, foreign endianness, truncation, or inconsistent columns.
 * Derived from FatalError so generic handlers (and existing
 * EXPECT_THROW(..., FatalError) tests) still work, but catchable on
 * its own so the catalog's recovery path can treat "this file is
 * bad" as a per-generation condition instead of a process-fatal one.
 */
class StoreError : public FatalError
{
  public:
    explicit StoreError(const std::string &msg) : FatalError(msg) {}
};

/** Monolith (single-file, multi-uarch) container version. */
constexpr uint32_t kSnapshotVersion = 2;

/** Per-uarch shard container version. */
constexpr uint32_t kShardVersion = 3;

/** Serialized monolith bytes. */
std::string snapshotBytes(const InstructionDatabase &db);

/**
 * Load a monolith or shard container held in memory (throws
 * StoreError on malformed input: bad magic, unsupported version,
 * foreign endianness, truncated or inconsistent arrays, an unknown
 * shard uarch, or a shard whose records disagree with its header
 * uarch). The bytes are copied once into an aligned buffer the
 * database owns.
 */
std::unique_ptr<InstructionDatabase>
loadSnapshotBytes(const std::string &bytes);

/** Save to / load from a file path (the load maps the file). */
void saveSnapshotFile(const InstructionDatabase &db,
                      const std::string &path);
std::unique_ptr<InstructionDatabase>
loadSnapshotFile(const std::string &path);

// ---- per-uarch shards (catalog storage unit) -------------------------

/**
 * Serialize @p db as a version-3 shard for @p arch. Every record must
 * belong to @p arch (throws FatalError otherwise) — a shard is
 * single-uarch by definition.
 */
void saveShard(const InstructionDatabase &db, uarch::UArch arch,
               std::ostream &os);

/** Serialized shard bytes (the content that shard hashes cover). */
std::string shardBytes(const InstructionDatabase &db,
                       uarch::UArch arch);

/**
 * Zero-copy shard load: columns are bound directly into @p mapping,
 * which the returned database keeps alive; only the rebuilt indexes
 * allocate. The first mutation of the returned database (ingesting on
 * top of it) copies the touched columns out of the mapping.
 * @p expected guards against a manifest/file mismatch.
 */
std::unique_ptr<InstructionDatabase>
loadShardMapped(std::shared_ptr<const MappedFile> mapping,
                uarch::UArch expected);

} // namespace uops::db

#endif // UOPS_DB_SNAPSHOT_H
