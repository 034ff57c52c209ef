/**
 * @file
 * Sharded read-mostly LRU cache for rendered HTTP responses.
 *
 * The serving workload is uops.info-shaped: many concurrent readers
 * issuing a heavily skewed set of GET queries against an immutable
 * database. A single-mutex LRU would serialize every reader on the
 * recency-list update, so the cache is split into N shards, each with
 * its own lock, keyed by a hash of the request target. Hit/miss
 * counters are plain atomics outside the locks.
 *
 * Values are complete HttpResponse bodies. A serving generation's
 * catalog is immutable, but the generation itself can be hot-swapped
 * (QueryService::swapCatalog), so every entry carries the serving
 * epoch it was rendered under and a lookup hits only when the epochs
 * match: a response rendered from generation N can never be returned
 * while generation N+1 is being served, without any flush-on-swap
 * coordination. The epoch lives in the entry rather than the key, so
 * a hit stays a zero-allocation string_view lookup and a new
 * generation's put() overwrites the retired entry in place instead
 * of letting it squat until LRU eviction. Within an epoch entries
 * never expire — eviction is purely capacity-driven (per shard,
 * true LRU).
 */

#ifndef UOPS_SERVER_RESPONSE_CACHE_H
#define UOPS_SERVER_RESPONSE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "server/http.h"

namespace uops::server {

class ResponseCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        size_t entries = 0;
        size_t shards = 0;
        size_t capacity = 0;   ///< total across shards

        /** Body bytes copied into entries (HttpResponse::body).
         *  Shared bodies (HttpResponse::blob, e.g. the /instr
         *  renders) contribute zero here: their entry holds a
         *  shared_ptr, so caching one and every hit on it cost a
         *  refcount, not a copy. */
        size_t owned_bytes = 0;
    };

    /**
     * @param num_shards        Lock shards (rounded up to 1).
     * @param capacity_per_shard Max entries per shard (>= 1).
     */
    ResponseCache(size_t num_shards, size_t capacity_per_shard);

    /** Look up a rendered response for one serving epoch; counts a
     *  hit or miss. An entry rendered under a different epoch is a
     *  miss (but stays cached for requests still pinning its
     *  generation). The epoch is deliberately non-defaulted: put()
     *  requires one, and a mismatched epoch is a silent 0% hit rate,
     *  not an error. */
    std::optional<HttpResponse> get(std::string_view key,
                                    uint64_t epoch);

    /** Insert (or overwrite) an entry, evicting the shard's LRU
     *  tail. */
    void put(std::string_view key, uint64_t epoch,
             const HttpResponse &response);

    Stats stats() const;

  private:
    struct Entry
    {
        std::string key;
        uint64_t epoch;
        HttpResponse response;
    };

    struct Shard
    {
        std::mutex mutex;
        /** Most-recent first; map values point into this list. */
        std::list<Entry> lru;
        std::unordered_map<std::string_view,
                           decltype(lru)::iterator>
            index;
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        std::atomic<uint64_t> insertions{0};
        std::atomic<uint64_t> evictions{0};
        size_t owned_bytes = 0;  ///< guarded by mutex
    };

    Shard &shardFor(std::string_view key);

    std::vector<std::unique_ptr<Shard>> shards_;
    size_t capacity_per_shard_;
};

} // namespace uops::server

#endif // UOPS_SERVER_RESPONSE_CACHE_H
