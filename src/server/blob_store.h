/**
 * @file
 * What every request of one catalog generation shares: its ETag and
 * its /uarchs body.
 *
 * A BlobStore is built from one DatabaseCatalog at swapCatalog time
 * and owns:
 *
 *   - the generation's ETag, derived from the catalog's content hash
 *     (the same FNV-1a digests the storage engine verifies on load),
 *     so HTTP revalidation is content-addressed: two generations
 *     serving identical shard bytes share an ETag, and any
 *     re-characterized shard changes it;
 *   - the full /uarchs response body (a few hundred bytes).
 *
 * Record bodies are not here. /instr and /search render records per
 * request through writeRecordJson, and the response cache keeps the
 * /instr renders; so the store costs one short render per swap, and
 * every lane serves the same bytes because there is one renderer.
 *
 * Bodies are handed out as shared_ptr<const std::string>: the
 * HttpResponse and every concurrent sender share one buffer.
 *
 * Immutable after build(); all accessors are const and thread-safe.
 */

#ifndef UOPS_SERVER_BLOB_STORE_H
#define UOPS_SERVER_BLOB_STORE_H

#include <memory>
#include <string>

#include "db/catalog.h"

namespace uops::server {

class JsonWriter;

/** Render one database record as a JSON object (the element type of
 *  /instr and /search "results" arrays). The single source of truth
 *  for the record wire format. */
void writeRecordJson(JsonWriter &json, const db::RecordView &view);

/** Render the full /uarchs response body for @p catalog. */
std::string renderUArchsBody(const db::DatabaseCatalog &catalog);

class BlobStore
{
  public:
    /** Derive the ETag and render /uarchs for @p catalog. Runs once
     *  per generation at swapCatalog time. */
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

  private:
    BlobStore() = default;

    std::string etag_;
    std::shared_ptr<const std::string> uarchs_body_;
};

} // namespace uops::server

#endif // UOPS_SERVER_BLOB_STORE_H
