/**
 * @file
 * Versioned binary container formats for the instruction database.
 *
 * The store's unit is the shard (version 3), one uarch's
 * InstructionDatabase (little-endian, mmap-friendly, every array
 * 8-byte aligned):
 *
 *   header   8-byte magic "UOPSDB\x1a\n", u32 version, u32 endian
 *            tag (0x0A0B0C0D as written by the producer — a reader on
 *            a byte-swapped host rejects the file instead of
 *            misreading it), u64 record count, u64 microarchitecture
 *            id
 *   arrays   the columnar arrays of InstructionDatabase, in a fixed
 *            order, each as: u64 element count, raw element bytes,
 *            zero padding to the next 8-byte boundary
 *
 * The sharded catalog store (catalog.h) writes one shard file per
 * uarch plus a manifest. Because every array is a contiguous raw dump
 * aligned to 8 bytes, the loader checks the container and binds each
 * column in place into the file mapping, which the database keeps
 * alive. The in-memory query indexes are *not* serialized — they are
 * deterministically rebuilt on load, so two shards with equal bytes
 * answer every query identically. Shards are bit-exact:
 * save(load(save(db))) == save(db).
 *
 * The shard is the only container read. Older versions are refused
 * by number: v1 (IEEE-double cycle columns) and the v2 multi-uarch
 * monolith are rebuilt by re-ingesting the results XML.
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

/** Per-uarch shard container version. */
constexpr uint32_t kShardVersion = 3;

/** Serialize @p db as a version-3 shard of its uarch. */
void saveShard(const InstructionDatabase &db, std::ostream &os);

/** Serialized shard bytes (the content that shard hashes cover). */
std::string shardBytes(const InstructionDatabase &db);

/**
 * Zero-copy shard load: columns are bound directly into @p mapping,
 * which the returned database keeps alive; only the rebuilt indexes
 * allocate. Throws StoreError on malformed input: bad magic,
 * unsupported version, foreign endianness, truncated or inconsistent
 * arrays, or records that disagree with the header uarch.
 * @p expected guards against a manifest/file mismatch.
 */
std::unique_ptr<InstructionDatabase>
loadShardMapped(std::shared_ptr<const MappedFile> mapping,
                uarch::UArch expected);

} // namespace uops::db

#endif // UOPS_DB_SNAPSHOT_H
