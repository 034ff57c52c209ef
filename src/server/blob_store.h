/**
 * @file
 * Precomputed per-generation response blobs.
 *
 * The serving hot path for the catalog-shaped endpoints (/uarchs,
 * /instr/{name}) does the same work on every request: walk immutable
 * records, render JSON, copy it onto a socket. A catalog generation
 * is immutable by construction, so all of that work can be done once
 * — at swapCatalog time, off the request path — and the per-request
 * cost collapses to a hash lookup plus a writev of bytes that already
 * exist.
 *
 * A BlobStore is built from one DatabaseCatalog and owns:
 *
 *   - the full /uarchs response body,
 *   - one full /instr/{name} body per variant name (all uarches, in
 *     uarch order — exactly what findByName would produce),
 *   - per-(name, uarch) fragment slices *into* those bodies, so a
 *     /instr/{name}?uarch=X variant is assembled from three spans
 *     (shared prefix, record fragment, "]}") without re-rendering,
 *   - the generation's ETag, derived from the catalog's content hash
 *     (the same FNV-1a digests the storage engine verifies on load),
 *     so HTTP revalidation is content-addressed: two generations
 *     serving identical shard bytes share an ETag, and any
 *     re-characterized shard changes it.
 *
 * Bodies are handed out as shared_ptr<const std::string>: the
 * HttpResponse, the response cache entry and every concurrent sender
 * share one buffer, so a cache insertion of a blob-backed response
 * costs a refcount, not a copy.
 *
 * Byte-identity is by construction, not by discipline: the blobs are
 * rendered through the same writeRecordJson / renderUArchsBody code a
 * per-request render would use, and the store is the *only* renderer
 * for these endpoints — every request lane serves the same bytes.
 *
 * Immutable after build(); all accessors are const and thread-safe.
 */

#ifndef UOPS_SERVER_BLOB_STORE_H
#define UOPS_SERVER_BLOB_STORE_H

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/catalog.h"

namespace uops::server {

class JsonWriter;

/** Render one database record as a JSON object (the element type of
 *  /instr and /search "results" arrays). The single source of truth
 *  for the record wire format: the blob store renders through it at
 *  build time and /search renders through it per request, so a
 *  precomputed body is byte-identical to a cold render. */
void writeRecordJson(JsonWriter &json, const db::RecordView &view);

/** Render the full /uarchs response body for @p catalog. */
std::string renderUArchsBody(const db::DatabaseCatalog &catalog);

class BlobStore
{
  public:
    struct Stats
    {
        size_t names = 0;      ///< distinct variant names indexed
        size_t records = 0;    ///< record fragments sliced
        size_t bytes = 0;      ///< total body bytes owned
        uint64_t build_us = 0; ///< wall time of build()
    };

    /** Render every blob for @p catalog. Runs once per generation at
     *  swapCatalog time (never on a request thread's hot path). */
    static std::shared_ptr<const BlobStore>
    build(const db::DatabaseCatalog &catalog);

    /** Opaque ETag value (unquoted) identifying this generation's
     *  content: hashHex of DatabaseCatalog::contentHash(). */
    const std::string &etag() const { return etag_; }

    /** The full /uarchs body. */
    std::shared_ptr<const std::string> uarchsBody() const
    {
        return uarchs_body_;
    }

    /** Full /instr/{name} body (every uarch); nullptr when the
     *  catalog has no record with this variant name. */
    std::shared_ptr<const std::string>
    instrBody(std::string_view name) const;

    /** Assembled /instr/{name}?uarch= body: shared prefix + the one
     *  record fragment + "]}", byte-identical to rendering that
     *  single record. nullptr when (name, arch) is absent. */
    std::shared_ptr<const std::string>
    instrBody(std::string_view name, uarch::UArch arch) const;

    /** Whether any record with this variant name exists. */
    bool hasInstr(std::string_view name) const;

    /**
     * View of one record's precomputed JSON object — the exact
     * writeRecordJson render of (name, arch), as sliced into the full
     * /instr body. /search splices these into its results array
     * (JsonWriter::raw) instead of re-rendering each hit; empty view
     * when the pair is absent. Valid for the store's lifetime.
     */
    std::string_view recordFragment(std::string_view name,
                                    uarch::UArch arch) const;

    Stats stats() const { return stats_; }

  private:
    struct Fragment
    {
        uarch::UArch arch;
        uint32_t offset = 0;  ///< into the full body
        uint32_t length = 0;
    };

    struct Entry
    {
        std::shared_ptr<const std::string> body;
        uint32_t prefix_len = 0;  ///< offset of the first fragment
        std::vector<Fragment> fragments;  ///< uarch-ascending
    };

    /** Heterogeneous string hashing so lookups by string_view never
     *  allocate. */
    struct NameHash
    {
        using is_transparent = void;
        size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    BlobStore() = default;

    std::string etag_;
    std::shared_ptr<const std::string> uarchs_body_;
    std::unordered_map<std::string, Entry, NameHash, std::equal_to<>>
        instr_;
    Stats stats_;
};

} // namespace uops::server

#endif // UOPS_SERVER_BLOB_STORE_H
