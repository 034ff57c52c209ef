/**
 * @file
 * The query service: routes HTTP requests against a sharded
 * DatabaseCatalog to JSON responses.
 *
 * Endpoints (all responses application/json):
 *
 *   GET  /healthz                      liveness + record counts +
 *                                      serving generation
 *   GET  /uarchs                       served microarchitectures
 *   GET  /instr/{name}[?uarch=SKL]     one variant, all/one uarch(s)
 *   GET  /search?...                   scan-executor search; params:
 *         uarch=SKL name= mnemonic=ADD extension=SSE2
 *         uses=p05 uses_only=p015 uses_exact=p05
 *         tp_min= tp_max= lat_min= lat_max=
 *         uops_min= uops_max= has=breakers,slow,ports,same_reg,store
 *         limit=
 *   GET  /diff?a=NHM&b=SKL             cross-uarch differences
 *   GET  /analytics/regressions        cross-generation analytics:
 *         ?from=HSW&to=SKL             variants present on both
 *         [&metric=tp|latency|any]     uarches whose metrics moved in
 *         [&direction=regressed|       the requested direction,
 *           improved|changed]          optionally pre-filtered by the
 *         [&mnemonic=&extension=       same compound predicates
 *          &uses=&...&limit=]          /search accepts
 *   GET  /predict?uarch=SKL&asm=...    simulate a multi-instruction
 *   POST /predict?uarch=SKL             kernel (';' or newlines
 *                                       separate instructions; POST
 *                                       body is the listing) on the
 *                                       requested generation's
 *                                       cycle-level model, plus the
 *                                       catalog-derived static
 *                                       analysis when coverage allows
 *   POST /reload                       hot-swap to the freshly
 *                                      reloaded catalog generation
 *   GET  /metrics                      Prometheus text exposition
 *                                      (text/plain, never cached)
 *
 * Three lanes lead into the service — tryServeRaw() on a bare GET
 * head, tryServeFast() on a parsed request, and handle() for
 * everything — and all three route the path through one router and
 * end in one finish path: cache probe, catalog answer (/uarchs from
 * the generation's precomputed body, /instr rendered from the pinned
 * catalog on a cache miss), cache put, If-None-Match -> 304,
 * error/latency metrics, request-ID resolution, access and
 * slow-request log lines, tracer completion. The lanes differ only
 * in how much of the request they parse and whether they may run
 * real work on a miss, so wherever two lanes serve a request they
 * answer identically.
 *
 * Observability: every served request resolves a request ID (a
 * valid client X-Request-Id is echoed, otherwise one is minted) and
 * returns it on the response; at Info the logger emits one access
 * line per request (id, method, endpoint, status, latency, cache
 * disposition, serving generation/epoch) and at Warn a slow_request
 * line past Options::slow_request_us. /predict records spans across
 * parse -> assemble -> simulate -> analysis -> render; they are
 * returned in the body under "timings" when ?debug=timings is set
 * (such responses bypass both caches) and forwarded to the
 * UOPS_TRACE Chrome-trace profile when enabled.
 *
 * /predict is the compute endpoint: kernels are parsed with
 * isa::assemble, admission-checked (instruction count, listing size
 * -> 413; simulated-cycle budget, engine queue -> 429, all with
 * structured JSON bodies), simulated on a dedicated PredictEngine
 * thread pool, and memoized in a second response cache keyed by the
 * exact sim::MeasurementCache kernel fingerprint — so GET, POST and
 * whitespace-variant spellings of one kernel share a single entry,
 * and memoized responses are byte-identical to cold ones. Like the
 * GET response cache, the memo is epoch-keyed (the static-analysis
 * half of the body depends on the serving generation); the engine's
 * deeper simulation memo is generation-independent and survives
 * swaps.
 *
 * Hot swap is epoch-style: the service holds one immutable
 * ServingState (catalog handle + lazily built per-uarch predictor
 * contexts) behind a shared_ptr; every request pins the state once
 * and runs entirely against it, so a concurrent swapCatalog() —
 * triggered by /reload or `uopsq serve --watch` — installs the next
 * generation atomically while in-flight requests finish on the old
 * one, which stays alive (shards, mappings and all) until its last
 * request drops the handle.
 *
 * GET responses for /instr, /search, /diff, /analytics and /predict
 * pass through the sharded LRU response cache keyed by (serving
 * epoch, raw request target), so a swap can never serve a response
 * rendered from a previous generation; it is the only store of
 * rendered /instr bodies. /healthz and /metrics are never cached.
 * Every request updates the per-endpoint metrics (requests, errors,
 * cache hits, latency histogram), which /metrics renders.
 *
 * handle() is thread-safe: catalogs are immutable, the cache and
 * metrics are internally synchronized, and per-uarch predictor
 * contexts are built once per generation under that state's mutex.
 */

#ifndef UOPS_SERVER_SERVICE_H
#define UOPS_SERVER_SERVICE_H

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "core/predictor.h"
#include "db/catalog.h"
#include "server/blob_store.h"
#include "server/http.h"
#include "server/predict_engine.h"
#include "server/response_cache.h"
#include "support/obs/log.h"
#include "support/obs/metrics.h"
#include "support/obs/trace.h"

namespace uops::server {

/** Routes, in metrics order. */
enum class Endpoint : uint8_t {
    Healthz,
    UArchs,
    Instr,
    Search,
    Diff,
    Predict,
    Reload,
    Metrics,
    Analytics,
    Other,
};

constexpr size_t kNumEndpoints = 10;

/** Metrics name of a route ("/instr", ...). */
const char *endpointName(Endpoint endpoint);

/** The request ID a response carries: @p client_id (the raw
 *  X-Request-Id value; empty = absent) when it is safe to echo —
 *  1..128 printable non-space ASCII chars — else a freshly minted
 *  one. Correlation must not become a header injection or log
 *  forgery vector. */
std::string resolveRequestId(std::string_view client_id);

/** Per-request admission bounds for /predict kernels. */
struct PredictAdmission
{
    size_t max_instructions = 64;          ///< beyond: 413
    size_t max_listing_bytes = 64 * 1024;  ///< beyond: 413
};

class QueryService
{
  public:
    using CatalogPtr = std::shared_ptr<const db::DatabaseCatalog>;

    /** Produces the next catalog generation for /reload (typically:
     *  re-open the catalog directory). Runs on a request thread,
     *  serialized across concurrent reloads; any exception maps to a
     *  structured 503 response and the current generation keeps
     *  serving — a corrupt store can reject a reload, never take
     *  down what is already being served. The reloader fills
     *  @p report when it had to fall back past a bad generation;
     *  the service folds it into its /metrics counters and the
     *  /reload body. */
    using Reloader = std::function<CatalogPtr(db::RecoveryReport &)>;

    struct Options
    {
        PredictAdmission admission;

        /** Simulation pool, in-flight bound, cycle budget. */
        PredictEngine::Options engine;

        /** Requests at or above this handle() latency get a Warn
         *  `slow_request` log line (0 disables). */
        uint64_t slow_request_us = 250000;

        /** Initial logger threshold. Warn by default so embedding
         *  the service (tests, benches, the CLI's direct handle()
         *  path) stays silent; `uopsq serve` raises it to Info to
         *  turn on the access log. */
        obs::LogLevel log_level = obs::LogLevel::Warn;
    };

    /**
     * @param catalog First served generation (non-null).
     * @param instrs  Instruction set used to assemble /predict
     *                kernels and resolve variants.
     */
    QueryService(CatalogPtr catalog, const isa::InstrDb &instrs,
                 Options options);

    /** Default options. */
    QueryService(CatalogPtr catalog, const isa::InstrDb &instrs);

    /** Route one request to a response (thread-safe). */
    HttpResponse handle(const HttpRequest &request);

    /**
     * The serving fast path: answer @p request when no real work is
     * needed — a response-cache hit, a catalog answer (/uarchs, or
     * an /instr render of at most one record per uarch, including
     * their 400/404 renders), or an If-None-Match revalidation
     * against the generation ETag (304, no body at all). Returns
     * true with @p response finished (metrics, request ID and access
     * log all applied); false when the request needs real work (cold
     * /search, /diff, /predict, POSTs, admin endpoints), in which
     * case the caller dispatches it to handle() on a worker thread.
     * Thread-safe.
     */
    bool tryServeFast(const HttpRequest &request,
                      HttpResponse &response);

    /**
     * The same fast path driven by a zero-parse head scan
     * (scanFastGet): the target up to '?' goes through the router
     * and the response cache is probed by raw target — no
     * HttpRequest, no query map, no percent decoding. Returns false
     * for anything it cannot read literally (a path containing '%'
     * or '+', /instr queries other than a lone uarch=) and for cold
     * work, in which case the caller falls back to the full parser.
     */
    bool tryServeRaw(const FastGetView &raw, HttpResponse &response);

    /** The service's metrics registry (what GET /metrics renders,
     *  together with obs::Registry::global()). */
    obs::Registry &registry() { return registry_; }
    const obs::Registry &registry() const { return registry_; }

    /** Structured logger: access log at Info, slow requests and
     *  reload/recovery events at Warn. The HTTP transport layer
     *  shares it for pre-routing error paths. */
    obs::Logger &logger() { return logger_; }

    ResponseCache::Stats cacheStats() const { return cache_.stats(); }

    /** Fingerprint-keyed /predict memo counters. */
    ResponseCache::Stats kernelMemoStats() const
    {
        return kernel_memo_.stats();
    }

    /** Simulation-engine counters. */
    PredictEngine::Stats engineStats() const
    {
        return engine_.stats();
    }

    /** The currently served catalog generation. */
    CatalogPtr catalog() const;

    /** Monotonic swap counter (also the cache key space id). */
    uint64_t epoch() const;

    /**
     * Atomically install @p next as the serving generation. In-flight
     * requests finish on the generation they pinned; new requests see
     * @p next. Returns the new epoch.
     */
    uint64_t swapCatalog(CatalogPtr next);

    /** Configure the /reload source. */
    void setReloader(Reloader reloader);

    /** Run the reloader and swap (what POST /reload does). Returns
     *  the new epoch. Throws when no reloader is configured or the
     *  reloader fails. */
    uint64_t reload();

    /** Latency histogram bucket count (obs::Histogram's power-of-two
     *  buckets: bucket i holds requests whose handle() time in µs has
     *  bit_width i; the last bucket is open-ended). */
    static constexpr size_t kLatencyBuckets = obs::Histogram::kBuckets;

  private:
    /** Registry-backed handles for one endpoint's hot-path series
     *  (resolved once at construction; recording is lock-free). */
    struct EndpointInstruments
    {
        obs::Counter *requests = nullptr;
        obs::Counter *errors = nullptr;
        obs::Counter *cache_hits = nullptr;
        obs::Histogram *latency = nullptr;
    };

    /** Lazily-built per-uarch predictor (set must outlive it). */
    struct PredictContext
    {
        core::CharacterizationSet set;
        std::unique_ptr<core::PerformancePredictor> predictor;
    };

    /**
     * One serving generation: everything a request needs, pinned by
     * a single shared_ptr copy at dispatch. Immutable except for the
     * lazily populated predictor contexts (guarded by their mutex).
     */
    struct ServingState
    {
        CatalogPtr catalog;
        uint64_t epoch = 0;

        /** Generation ETag + /uarchs body, built once at install
         *  time (the swapCatalog hook). Never null. */
        std::shared_ptr<const BlobStore> blobs;

        std::mutex predict_mutex;
        std::map<uarch::UArch, std::unique_ptr<PredictContext>>
            predict_contexts;
    };
    using StatePtr = std::shared_ptr<ServingState>;

    StatePtr state() const;
    StatePtr installCatalog(CatalogPtr next);
    StatePtr reloadState(db::RecoveryReport &report);

    /** What the finish path reads of a request, as views into
     *  whichever form the calling lane holds (valid for the call). */
    struct RequestView
    {
        std::string_view method;
        std::string_view target;         ///< raw: cache key, slow log
        std::string_view path;           ///< decoded path
        std::string_view if_none_match;  ///< empty = absent
        std::string_view request_id;     ///< X-Request-Id; empty = absent
        /** The decoded ?uarch= parameter, read by the /instr
         *  render. */
        std::optional<std::string_view> uarch;
    };

    static RequestView viewOf(const HttpRequest &request);

    HttpResponse dispatch(Endpoint endpoint,
                          const HttpRequest &request,
                          ServingState &state, obs::SpanSet *spans,
                          bool debug_timings);
    void registerInstruments();

    /**
     * The one finish path of all three lanes (see file comment).
     * On a cache miss a GET to /uarchs or /instr takes the catalog
     * answer; anything else calls @p render (HttpResponse(
     * ServingState &)), or — when @p render is nullptr — returns
     * false with nothing counted, so the caller can hand the request
     * to a lane that may do real work. Returns true with @p response
     * finished.
     */
    template <typename Render>
    bool serve(const RequestView &request, Endpoint endpoint,
               bool cacheable, Render &&render,
               HttpResponse &response);

    /** /uarchs from the generation's precomputed body, or /instr
     *  rendered from its catalog (400/404 renders included); 200s
     *  carry the generation ETag. @throws FatalError -> 400. */
    HttpResponse catalogAnswer(const RequestView &request,
                               Endpoint endpoint,
                               const ServingState &state);

    HttpResponse handleHealthz(const ServingState &state);
    HttpResponse handleSearch(const HttpRequest &request,
                              const ServingState &state);
    HttpResponse handleDiff(const HttpRequest &request,
                            const ServingState &state);
    HttpResponse handleAnalytics(const HttpRequest &request,
                                 const ServingState &state);
    HttpResponse handlePredict(const HttpRequest &request,
                               ServingState &state,
                               obs::SpanSet *spans,
                               bool debug_timings);
    HttpResponse handleReload(const HttpRequest &request);
    HttpResponse handleMetrics();

    const PredictContext &predictContext(ServingState &state,
                                         uarch::UArch arch);

    const isa::InstrDb &instrs_;
    Options options_;
    ResponseCache cache_;
    ResponseCache kernel_memo_;
    PredictEngine engine_;

    /** Every counter below lives in this registry, which /metrics
     *  renders; the named pointers are pre-resolved hot-path handles
     *  into it. */
    obs::Registry registry_;
    obs::Logger logger_;

    std::array<EndpointInstruments, kNumEndpoints> instruments_;

    /** /predict admission rejections, by reason. */
    obs::Counter *rejected_oversize_ = nullptr;  ///< 413
    obs::Counter *rejected_budget_ = nullptr;    ///< 429 (cycles)
    obs::Counter *rejected_busy_ = nullptr;      ///< 429 (queue)

    obs::Counter *not_modified_ = nullptr;  ///< 304 revalidations

    /** Reload/recovery health. */
    obs::Counter *reloads_ = nullptr;            ///< swaps installed
    obs::Counter *reload_rejections_ = nullptr;  ///< 503s served
    obs::Counter *recoveries_ = nullptr;         ///< fell back a gen
    obs::Counter *recovery_events_ = nullptr;    ///< report events
    obs::Counter *verification_failures_ = nullptr;  ///< bad gens

    /** Serving identity (updated on every swap). */
    obs::Gauge *serving_generation_ = nullptr;
    obs::Gauge *serving_epoch_ = nullptr;

    mutable std::mutex state_mutex_;
    StatePtr state_;

    std::mutex reload_mutex_;
    Reloader reloader_;
};

/** JSON error body {"error": message}. */
HttpResponse errorResponse(int status, const std::string &message);

} // namespace uops::server

#endif // UOPS_SERVER_SERVICE_H
