#include "service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <type_traits>

#include "isa/kernel.h"
#include "server/blob_store.h"
#include "server/json.h"
#include "support/status.h"
#include "support/strings.h"

namespace uops::server {

namespace {

/** Response cache (rendered GET bodies) and kernel memo
 *  (fingerprint-keyed /predict responses): shards x entries each. */
constexpr size_t kCacheShards = 8;
constexpr size_t kCacheCapacityPerShard = 512;
constexpr size_t kMemoShards = 8;
constexpr size_t kMemoCapacityPerShard = 1024;

std::optional<uarch::UArch>
parseArchParam(const HttpRequest &request, const std::string &key)
{
    auto value = request.param(key);
    if (!value)
        return std::nullopt;
    return uarch::parseUArch(*value);   // FatalError -> 400
}

HttpResponse
jsonResponse(std::string body)
{
    HttpResponse response;
    response.body = std::move(body);
    return response;
}

} // namespace

const char *
endpointName(Endpoint endpoint)
{
    switch (endpoint) {
      case Endpoint::Healthz: return "/healthz";
      case Endpoint::UArchs: return "/uarchs";
      case Endpoint::Instr: return "/instr";
      case Endpoint::Search: return "/search";
      case Endpoint::Diff: return "/diff";
      case Endpoint::Predict: return "/predict";
      case Endpoint::Reload: return "/reload";
      case Endpoint::Metrics: return "/metrics";
      case Endpoint::Analytics: return "/analytics";
      case Endpoint::Other: return "other";
    }
    return "?";
}

std::string
resolveRequestId(std::string_view client_id)
{
    bool acceptable =
        !client_id.empty() && client_id.size() <= 128 &&
        std::all_of(client_id.begin(), client_id.end(),
                    [](char c) { return c > ' ' && c <= '~'; });
    return acceptable ? std::string(client_id) : obs::newTraceId();
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    JsonWriter json;
    json.beginObject();
    json.member("error", std::string_view(message));
    json.member("status", static_cast<long>(status));
    json.endObject();
    HttpResponse response;
    response.status = status;
    response.body = std::move(json).str();
    return response;
}

QueryService::QueryService(CatalogPtr catalog,
                           const isa::InstrDb &instrs, Options options)
    : instrs_(instrs), options_(options),
      cache_(kCacheShards, kCacheCapacityPerShard),
      kernel_memo_(kMemoShards, kMemoCapacityPerShard),
      engine_(instrs, options.engine)
{
    fatalIf(catalog == nullptr, "QueryService: null catalog");
    logger_.setMinLevel(options.log_level);
    registerInstruments();
    swapCatalog(std::move(catalog));
}

void
QueryService::registerInstruments()
{
    auto endpoint_labels = [](Endpoint endpoint) {
        return obs::LabelSet{{"endpoint", endpointName(endpoint)}};
    };
    for (size_t i = 0; i < kNumEndpoints; ++i) {
        Endpoint endpoint = static_cast<Endpoint>(i);
        EndpointInstruments &ins = instruments_[i];
        ins.requests = &registry_.counter(
            "uops_http_requests_total", "Requests routed, by endpoint",
            endpoint_labels(endpoint));
        ins.errors = &registry_.counter(
            "uops_http_errors_total",
            "Responses with status >= 400, by endpoint",
            endpoint_labels(endpoint));
        ins.cache_hits = &registry_.counter(
            "uops_http_cache_hits_total",
            "Responses served from the response cache or the kernel "
            "memo, by endpoint",
            endpoint_labels(endpoint));
        ins.latency = &registry_.histogram(
            "uops_http_request_duration_us",
            "handle() wall time in microseconds, by endpoint",
            endpoint_labels(endpoint));
    }

    auto rejected = [this](const char *reason) {
        return &registry_.counter(
            "uops_predict_rejected_total",
            "/predict kernels rejected by admission, by reason",
            {{"reason", reason}});
    };
    rejected_oversize_ = rejected("oversize");
    rejected_budget_ = rejected("budget");
    rejected_busy_ = rejected("busy");

    not_modified_ = &registry_.counter(
        "uops_not_modified_total",
        "If-None-Match revalidations answered 304 without a body");

    reloads_ = &registry_.counter("uops_reloads_total",
                                  "Catalog generations installed");
    reload_rejections_ =
        &registry_.counter("uops_reload_rejections_total",
                           "Reloads rejected (503; old generation "
                           "kept serving)");
    recoveries_ = &registry_.counter(
        "uops_catalog_recoveries_total",
        "Reloads that fell back past a bad generation");
    recovery_events_ =
        &registry_.counter("uops_catalog_recovery_events_total",
                           "Recovery report events folded in");
    verification_failures_ = &registry_.counter(
        "uops_catalog_verification_failures_total",
        "Candidate generations rejected by verification");

    serving_generation_ = &registry_.gauge(
        "uops_serving_generation", "Catalog generation being served");
    serving_epoch_ = &registry_.gauge(
        "uops_serving_epoch", "Monotonic swap counter (cache key "
                             "space id)");

    // The caches and the engine keep their own internally-consistent
    // stats structs; mirror them into the exposition via render-time
    // callbacks instead of double bookkeeping on their hot paths.
    auto cache_series = [this](const char *which,
                               ResponseCache &cache) {
        auto counter = [&](const char *name, const char *help,
                           auto member) {
            registry_.counterCallback(
                name, help, {{"cache", which}},
                [&cache, member] {
                    return static_cast<double>(cache.stats().*member);
                });
        };
        counter("uops_response_cache_hits_total", "Cache hits",
                &ResponseCache::Stats::hits);
        counter("uops_response_cache_misses_total", "Cache misses",
                &ResponseCache::Stats::misses);
        counter("uops_response_cache_insertions_total",
                "Cache insertions", &ResponseCache::Stats::insertions);
        counter("uops_response_cache_evictions_total",
                "Cache evictions", &ResponseCache::Stats::evictions);
        registry_.gaugeCallback(
            "uops_response_cache_entries", "Entries resident",
            {{"cache", which}}, [&cache] {
                return static_cast<double>(cache.stats().entries);
            });
        registry_.gaugeCallback(
            "uops_response_cache_owned_bytes",
            "Body bytes copied into entries (shared bodies excluded)",
            {{"cache", which}}, [&cache] {
                return static_cast<double>(
                    cache.stats().owned_bytes);
            });
    };
    cache_series("response", cache_);
    cache_series("kernel_memo", kernel_memo_);

    auto engine_counter = [this](const char *name, const char *help,
                                 auto member) {
        registry_.counterCallback(name, help, {}, [this, member] {
            return static_cast<double>(engine_.stats().*member);
        });
    };
    auto engine_gauge = [this](const char *name, const char *help,
                               auto member) {
        registry_.gaugeCallback(name, help, {}, [this, member] {
            return static_cast<double>(engine_.stats().*member);
        });
    };
    engine_counter("uops_engine_simulations_total",
                   "Kernel simulations executed",
                   &PredictEngine::Stats::simulations);
    engine_counter("uops_engine_coalesced_total",
                   "Requests coalesced onto an in-flight simulation",
                   &PredictEngine::Stats::coalesced);
    engine_counter("uops_engine_rejected_total",
                   "Simulations rejected at the engine queue",
                   &PredictEngine::Stats::rejected);
    engine_counter("uops_engine_sim_cache_hits_total",
                   "Simulation memo hits",
                   &PredictEngine::Stats::sim_cache_hits);
    engine_counter("uops_engine_sim_cache_misses_total",
                   "Simulation memo misses",
                   &PredictEngine::Stats::sim_cache_misses);
    engine_gauge("uops_engine_sim_cache_entries",
                 "Simulation memo entries resident",
                 &PredictEngine::Stats::sim_cache_entries);
    engine_gauge("uops_engine_inflight", "Simulations in flight",
                 &PredictEngine::Stats::inflight);
    engine_gauge("uops_engine_workers", "Engine worker threads",
                 &PredictEngine::Stats::workers);
}

QueryService::QueryService(CatalogPtr catalog,
                           const isa::InstrDb &instrs)
    : QueryService(std::move(catalog), instrs, Options{})
{
}

QueryService::StatePtr
QueryService::state() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_;
}

QueryService::CatalogPtr
QueryService::catalog() const
{
    return state()->catalog;
}

uint64_t
QueryService::epoch() const
{
    return state()->epoch;
}

QueryService::StatePtr
QueryService::installCatalog(CatalogPtr next)
{
    fatalIf(next == nullptr, "QueryService: null catalog");
    auto fresh = std::make_shared<ServingState>();
    fresh->catalog = std::move(next);
    // What every request of the generation shares: its ETag and the
    // /uarchs body. Record bodies render on a response-cache miss.
    fresh->blobs = BlobStore::build(*fresh->catalog);
    // Epoch assignment happens under the same lock as the install so
    // concurrent swaps can neither interleave (installing an older
    // epoch over a newer one) nor observe a regressing epoch(); the
    // installed state is the single source of truth for the epoch.
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        fresh->epoch = state_ ? state_->epoch + 1 : 1;
        state_ = fresh;
    }
    serving_generation_->set(
        static_cast<double>(fresh->catalog->generation()));
    serving_epoch_->set(static_cast<double>(fresh->epoch));
    return fresh;
}

uint64_t
QueryService::swapCatalog(CatalogPtr next)
{
    return installCatalog(std::move(next))->epoch;
}

void
QueryService::setReloader(Reloader reloader)
{
    std::lock_guard<std::mutex> lock(reload_mutex_);
    reloader_ = std::move(reloader);
}

QueryService::StatePtr
QueryService::reloadState(db::RecoveryReport &report)
{
    // One reload at a time: concurrent /reload requests (or a --watch
    // tick racing a manual reload) serialize here, each installing a
    // complete generation.
    std::lock_guard<std::mutex> lock(reload_mutex_);
    fatalIf(!reloader_, "reload: no reload source configured");
    CatalogPtr next;
    try {
        next = reloader_(report);
        fatalIf(next == nullptr,
                "reload: reloader produced no catalog");
    } catch (const std::exception &e) {
        // The old generation keeps serving: a rejected reload is an
        // operational event, not an outage.
        reload_rejections_->inc();
        logger_.event(obs::LogLevel::Warn, "service",
                      "reload_rejected")
            .str("error", e.what());
        throw;
    } catch (...) {
        reload_rejections_->inc();
        logger_.event(obs::LogLevel::Warn, "service",
                      "reload_rejected");
        throw;
    }
    if (report.recovered)
        recoveries_->inc();
    recovery_events_->inc(report.events.size());
    verification_failures_->inc(report.rejected_generations.size());
    reloads_->inc();
    StatePtr installed = installCatalog(std::move(next));
    logger_
        .event(report.recovered ? obs::LogLevel::Warn
                                : obs::LogLevel::Info,
               "service", "reloaded")
        .num("generation", installed->catalog->generation())
        .num("epoch", installed->epoch)
        .num("records",
             static_cast<uint64_t>(installed->catalog->numRecords()))
        .boolean("recovered", report.recovered)
        .num("recovery_events",
             static_cast<uint64_t>(report.events.size()))
        .num("rejected_generations",
             static_cast<uint64_t>(
                 report.rejected_generations.size()));
    return installed;
}

uint64_t
QueryService::reload()
{
    db::RecoveryReport report;
    return reloadState(report)->epoch;
}

namespace {

/** The one router: every lane routes a decoded path through it. */
Endpoint
route(std::string_view path)
{
    if (path == "/healthz")
        return Endpoint::Healthz;
    if (path == "/uarchs")
        return Endpoint::UArchs;
    if (path.starts_with("/instr/") || path == "/instr")
        return Endpoint::Instr;
    if (path == "/search")
        return Endpoint::Search;
    if (path == "/diff")
        return Endpoint::Diff;
    if (path == "/predict")
        return Endpoint::Predict;
    if (path == "/reload")
        return Endpoint::Reload;
    if (path == "/metrics")
        return Endpoint::Metrics;
    if (path == "/analytics/regressions")
        return Endpoint::Analytics;
    return Endpoint::Other;
}

/** Endpoints whose GET responses pass through the response cache.
 *  /uarchs is one shared body per generation: caching it would only
 *  duplicate the lookup. */
bool
cachedEndpoint(Endpoint endpoint)
{
    return endpoint == Endpoint::Instr || endpoint == Endpoint::Search ||
           endpoint == Endpoint::Diff || endpoint == Endpoint::Predict ||
           endpoint == Endpoint::Analytics;
}

/** Endpoints a cache-only lane may answer: the cached ones, plus
 *  /uarchs and /instr, which never need real work on a miss. */
bool
fastEndpoint(Endpoint endpoint)
{
    return endpoint == Endpoint::UArchs || cachedEndpoint(endpoint);
}

} // namespace

QueryService::RequestView
QueryService::viewOf(const HttpRequest &request)
{
    RequestView view;
    view.method = request.method;
    view.target = request.target;
    view.path = request.path;
    if (const std::string *value = request.header("If-None-Match"))
        view.if_none_match = *value;
    if (const std::string *value = request.header("X-Request-Id"))
        view.request_id = *value;
    if (auto it = request.query.find("uarch"); it != request.query.end())
        view.uarch = it->second;
    return view;
}

template <typename Render>
bool
QueryService::serve(const RequestView &request, Endpoint endpoint,
                    bool cacheable, Render &&render,
                    HttpResponse &response)
{
    constexpr bool cache_only =
        std::is_null_pointer_v<std::remove_cvref_t<Render>>;
    uint64_t t0_us = obs::traceNowUs();
    EndpointInstruments &ins =
        instruments_[static_cast<size_t>(endpoint)];

    // Pin the serving generation once: everything below — cache key,
    // catalog answer, handlers — runs against this state even if a
    // swap lands mid-request.
    StatePtr st = state();

    HttpResponse out;
    bool from_cache = false;
    if (cacheable) {
        if (auto cached = cache_.get(request.target, st->epoch)) {
            out = std::move(*cached);
            out.cache_hit = true;
            from_cache = true;
        }
    }
    // Catalog answers are *always* cheap — the shared /uarchs body,
    // an /instr render of at most one record per uarch, or a 400/404
    // error render — so every lane answers them.
    bool catalog = !from_cache && request.method == "GET" &&
                   (endpoint == Endpoint::UArchs ||
                    endpoint == Endpoint::Instr);
    if constexpr (cache_only) {
        if (!from_cache && !catalog)
            return false;  // cold /search, /diff, /predict: real work
    }

    // Counted before rendering: /metrics reports its own request as
    // already in flight.
    ins.requests->inc();
    if (from_cache) {
        ins.cache_hits->inc();
    } else {
        try {
            if (catalog)
                out = catalogAnswer(request, endpoint, *st);
            else if constexpr (!cache_only)
                out = render(*st);
        } catch (const FatalError &e) {
            out = errorResponse(400, e.what());
        } catch (const std::exception &e) {
            out = errorResponse(500, e.what());
        }
        if (cacheable && out.status == 200)
            cache_.put(request.target, st->epoch, out);
    }

    // Conditional GET: when the client's If-None-Match names the
    // entity this response carries, the transfer is pure waste — the
    // response collapses to a bodiless 304 with the same ETag.
    // Running after both the cache and the handlers means cached and
    // fresh 200s revalidate identically.
    if (out.status == 200 && !out.etag.empty() &&
        ifNoneMatchValue(request.if_none_match, out.etag)) {
        HttpResponse not_modified;
        not_modified.status = 304;
        not_modified.etag = std::move(out.etag);
        not_modified.cache_hit = out.cache_hit;
        out = std::move(not_modified);
        not_modified_->inc();
    }

    if (out.status >= 400)
        ins.errors->inc();
    uint64_t us = obs::traceNowUs() - t0_us;
    ins.latency->observe(us);

    // Set *after* the cache put so a cached entry never replays the
    // first requester's ID to later hits.
    out.request_id = resolveRequestId(request.request_id);

    if (logger_.enabled(obs::LogLevel::Info)) {
        logger_.event(obs::LogLevel::Info, "http", "access")
            .str("id", out.request_id)
            .str("method", request.method)
            .str("endpoint", endpointName(endpoint))
            .num("status", static_cast<int64_t>(out.status))
            .num("us", us)
            .str("cache",
                 cacheable ? (from_cache ? "hit" : "miss") : "none")
            .num("generation", st->catalog->generation())
            .num("epoch", st->epoch);
    }
    if (options_.slow_request_us > 0 &&
        us >= options_.slow_request_us &&
        logger_.enabled(obs::LogLevel::Warn)) {
        logger_.event(obs::LogLevel::Warn, "http", "slow_request")
            .str("id", out.request_id)
            .str("target", request.target.substr(0, 256))
            .num("status", static_cast<int64_t>(out.status))
            .num("us", us)
            .num("threshold_us", options_.slow_request_us);
    }
    if (obs::ChromeTracer *tracer = obs::ChromeTracer::fromEnv())
        tracer->complete(endpointName(endpoint), "http", t0_us, us);
    response = std::move(out);
    return true;
}

HttpResponse
QueryService::handle(const HttpRequest &request)
{
    Endpoint endpoint = route(request.path);

    // Spans are collected only when someone will read them: a
    // ?debug=timings /predict response or an active UOPS_TRACE
    // profile. The cached hot path never allocates a SpanSet.
    bool debug_timings = false;
    std::optional<obs::SpanSet> spans;
    if (endpoint == Endpoint::Predict) {
        auto debug = request.param("debug");
        debug_timings = debug && *debug == "timings";
        obs::ChromeTracer *tracer = obs::ChromeTracer::fromEnv();
        if (debug_timings || tracer)
            spans.emplace("predict", tracer);
    }

    // Timed debug responses must stay per-request: they bypass the
    // response cache (and the kernel memo), so a memoized response is
    // still byte-identical to a cold render.
    bool cacheable = request.method == "GET" && !debug_timings &&
                     cachedEndpoint(endpoint);
    HttpResponse response;
    serve(viewOf(request), endpoint, cacheable,
          [&](ServingState &state) {
              return dispatch(endpoint, request, state,
                              spans ? &*spans : nullptr, debug_timings);
          },
          response);
    return response;
}

bool
QueryService::tryServeFast(const HttpRequest &request,
                           HttpResponse &response)
{
    if (request.method != "GET")
        return false;
    Endpoint endpoint = route(request.path);
    if (!fastEndpoint(endpoint))
        return false;
    // Debug-timings responses are per-request by contract; they
    // never touch the cache, so they never have a fast path.
    if (endpoint == Endpoint::Predict && request.param("debug"))
        return false;
    return serve(viewOf(request), endpoint, cachedEndpoint(endpoint),
                 nullptr, response);
}

bool
QueryService::tryServeRaw(const FastGetView &raw,
                          HttpResponse &response)
{
    // The path is read only where its literal bytes are the decoded
    // ones: an escaped spelling takes the decoding parser — same
    // answer, slower lane.
    std::string_view target = raw.target;
    std::string_view path = target.substr(0, target.find('?'));
    if (path.find_first_of("%+") != std::string_view::npos)
        return false;
    Endpoint endpoint = route(path);
    if (!fastEndpoint(endpoint))
        return false;
    // Debug-timings /predict responses are per-request by contract;
    // the substring test is coarser than param("debug") but only
    // errs toward the full parser.
    if (endpoint == Endpoint::Predict &&
        target.find("debug") != std::string_view::npos)
        return false;

    RequestView view;
    view.method = "GET";
    view.target = target;
    view.path = path;
    view.if_none_match = raw.if_none_match;
    view.request_id = raw.request_id;
    if (endpoint == Endpoint::Instr) {
        // "/instr/NAME" or "/instr/NAME?uarch=SHORT": escapes and any
        // other query take the decoding parser.
        std::string_view query =
            target.substr(std::min(target.size(), path.size() + 1));
        if (!query.empty()) {
            if (!query.starts_with("uarch="))
                return false;
            std::string_view arch = query.substr(strlen("uarch="));
            if (arch.empty() ||
                arch.find_first_of("%+&=") != std::string_view::npos)
                return false;
            view.uarch = arch;
        }
    }
    return serve(view, endpoint, cachedEndpoint(endpoint), nullptr,
                 response);
}

HttpResponse
QueryService::dispatch(Endpoint endpoint, const HttpRequest &request,
                       ServingState &state, obs::SpanSet *spans,
                       bool debug_timings)
{
    if (endpoint == Endpoint::Reload && request.method != "POST")
        return errorResponse(405,
                             "reload mutates serving state: POST it");
    if (request.method != "GET" &&
        !(request.method == "POST" &&
          (endpoint == Endpoint::Predict ||
           endpoint == Endpoint::Reload)))
        return errorResponse(405, "method not allowed");

    switch (endpoint) {
      case Endpoint::Healthz: return handleHealthz(state);
      case Endpoint::Search: return handleSearch(request, state);
      case Endpoint::Diff: return handleDiff(request, state);
      case Endpoint::Predict:
        return handlePredict(request, state, spans, debug_timings);
      case Endpoint::Reload: return handleReload(request);
      case Endpoint::Metrics: return handleMetrics();
      case Endpoint::Analytics:
        return handleAnalytics(request, state);
      case Endpoint::UArchs:
      case Endpoint::Instr:  // GETs take serve()'s catalog answer
      case Endpoint::Other: break;
    }
    return errorResponse(404, "no such endpoint: " + request.path);
}

HttpResponse
QueryService::handleHealthz(const ServingState &state)
{
    const db::DatabaseCatalog &catalog = *state.catalog;
    JsonWriter json;
    json.beginObject();
    json.member("status", "ok");
    json.member("records", catalog.numRecords());
    json.member("generation", catalog.generation());
    json.member("epoch", state.epoch);
    json.key("uarches").beginArray();
    for (uarch::UArch arch : catalog.uarches())
        json.value(std::string_view(uarch::uarchShortName(arch)));
    json.endArray();
    json.endObject();
    return jsonResponse(std::move(json).str());
}

HttpResponse
QueryService::catalogAnswer(const RequestView &request,
                            Endpoint endpoint, const ServingState &state)
{
    HttpResponse response;
    response.etag = state.blobs->etag();
    if (endpoint == Endpoint::UArchs) {
        response.blob = state.blobs->uarchsBody();
        return response;
    }
    if (request.path == "/instr" || request.path == "/instr/")
        return errorResponse(400, "usage: /instr/{variant-name}");
    std::string_view name = request.path.substr(strlen("/instr/"));
    std::optional<uarch::UArch> arch;
    if (request.uarch)  // FatalError -> 400
        arch = uarch::parseUArch(std::string(*request.uarch));

    // At most one record per uarch, in shard order. The body is
    // shared, so the response cache keeps it and its hits never copy.
    JsonWriter json;
    json.beginObject();
    json.member("name", name);
    json.key("results").beginArray();
    bool found = false;
    for (const db::RecordView &view : state.catalog->findByName(name)) {
        if (arch && view.arch() != *arch)
            continue;
        writeRecordJson(json, view);
        found = true;
    }
    if (!found)
        return errorResponse(404, "no results for variant '" +
                                      std::string(name) + "'");
    json.endArray();
    json.endObject();
    response.blob =
        std::make_shared<const std::string>(std::move(json).str());
    return response;
}

namespace {

/** Decode a comma-separated has= flag list ("breakers,slow") into
 *  RecordFlag presence bits. @throws FatalError on unknown names. */
uint8_t
parseHasFlags(std::string_view spec)
{
    uint8_t flags = 0;
    while (true) {
        size_t comma = spec.find(',');
        std::string_view token = spec.substr(0, comma);
        if (token == "breakers")
            flags |= db::kHasTpBreakers;
        else if (token == "slow")
            flags |= db::kHasTpSlow;
        else if (token == "ports")
            flags |= db::kHasTpPorts;
        else if (token == "same_reg")
            flags |= db::kHasSameReg;
        else if (token == "store")
            flags |= db::kHasStoreRt;
        else
            fatalIf(true, "unknown has= flag '", std::string(token),
                    "' (breakers, slow, ports, same_reg, store)");
        if (comma == std::string_view::npos)
            return flags;
        spec.remove_prefix(comma + 1);
    }
}

/**
 * Decode the scan-predicate parameters — shared verbatim between
 * /search and /analytics/regressions (where they pre-filter both
 * sides of the merge). @throws FatalError (-> 400) on bad values.
 */
void
parseScanParams(const HttpRequest &request, db::Query &query)
{
    query.arch = parseArchParam(request, "uarch");
    query.name = request.param("name");
    query.mnemonic = request.param("mnemonic");
    query.extension = request.param("extension");
    if (auto uses = request.param("uses"))
        query.uses_ports = uarch::parsePortMask(*uses);
    if (auto only = request.param("uses_only"))
        query.ports_subset = uarch::parsePortMask(*only);
    if (auto exact = request.param("uses_exact"))
        query.ports_exact = uarch::parsePortMask(*exact);
    auto double_param = [&](const char *key) {
        std::optional<double> out;
        if (auto text = request.param(key)) {
            out = parseDouble(*text);
            fatalIf(!out, "non-numeric parameter ", key, "='", *text,
                    "'");
        }
        return out;
    };
    auto int_param = [&](const char *key) {
        std::optional<int> out;
        if (auto text = request.param(key)) {
            auto parsed = parseInt(*text);
            fatalIf(!parsed, "non-integer parameter ", key, "='",
                    *text, "'");
            out = static_cast<int>(*parsed);
        }
        return out;
    };
    // Double-valued bounds cross into fixed point exactly once, here
    // at the boundary; everything downstream compares raw integers.
    if (auto v = double_param("tp_min"))
        query.tp_min = db::tpBoundMin(*v);
    if (auto v = double_param("tp_max"))
        query.tp_max = db::tpBoundMax(*v);
    query.lat_min = int_param("lat_min");
    query.lat_max = int_param("lat_max");
    query.uops_min = int_param("uops_min");
    query.uops_max = int_param("uops_max");
    if (auto has = request.param("has"))
        query.has_flags = parseHasFlags(*has);
    if (auto limit = int_param("limit")) {
        fatalIf(*limit < 0, "negative limit");
        query.limit = static_cast<size_t>(*limit);
    }
}

} // namespace

HttpResponse
QueryService::handleSearch(const HttpRequest &request,
                           const ServingState &state)
{
    const db::DatabaseCatalog &catalog = *state.catalog;
    db::Query query;
    parseScanParams(request, query);

    std::vector<db::RecordView> records = catalog.search(query);

    JsonWriter json;
    json.beginObject();
    json.member("count", records.size());
    json.key("results").beginArray();
    for (const db::RecordView &view : records)
        writeRecordJson(json, view);
    json.endArray();
    json.endObject();
    return jsonResponse(std::move(json).str());
}

HttpResponse
QueryService::handleAnalytics(const HttpRequest &request,
                              const ServingState &state)
{
    const db::DatabaseCatalog &catalog = *state.catalog;
    auto from = parseArchParam(request, "from");
    auto to = parseArchParam(request, "to");
    if (!from || !to)
        return errorResponse(
            400,
            "usage: /analytics/regressions?from=HSW&to=SKL"
            "[&metric=tp|latency|any]"
            "[&direction=regressed|improved|changed]"
            "[&mnemonic=...&extension=...&uses=...&limit=...]");

    using Metric = db::AnalyticsQuery::Metric;
    using Direction = db::AnalyticsQuery::Direction;
    db::AnalyticsQuery query;
    query.from = *from;
    query.to = *to;
    std::string_view metric_name = "any";
    if (auto metric = request.param("metric")) {
        if (*metric == "tp")
            query.metric = Metric::Tp;
        else if (*metric == "latency")
            query.metric = Metric::Latency;
        else if (*metric != "any")
            return errorResponse(400, "unknown metric '" + *metric +
                                          "' (tp, latency, any)");
    }
    std::string_view direction_name = "regressed";
    if (auto direction = request.param("direction")) {
        if (*direction == "improved")
            query.direction = Direction::Improved;
        else if (*direction == "changed")
            query.direction = Direction::Changed;
        else if (*direction != "regressed")
            return errorResponse(
                400, "unknown direction '" + *direction +
                         "' (regressed, improved, changed)");
    }
    switch (query.metric) {
      case Metric::Tp: metric_name = "tp"; break;
      case Metric::Latency: metric_name = "latency"; break;
      case Metric::Any: break;
    }
    switch (query.direction) {
      case Direction::Improved: direction_name = "improved"; break;
      case Direction::Changed: direction_name = "changed"; break;
      case Direction::Regressed: break;
    }
    parseScanParams(request, query.filter);
    query.limit = query.filter.limit;

    db::AnalyticsResult result = catalog.analytics(query);

    JsonWriter json;
    json.beginObject();
    json.member("from",
                std::string_view(uarch::uarchShortName(*from)));
    json.member("to", std::string_view(uarch::uarchShortName(*to)));
    json.member("metric", metric_name);
    json.member("direction", direction_name);
    json.member("common", result.common);
    json.member("matched", result.matched);
    json.key("entries").beginArray();
    for (const db::AnalyticsEntry &entry : result.entries) {
        json.beginObject();
        json.member("name", std::string_view(entry.from.name()));
        json.member("mnemonic",
                    std::string_view(entry.from.mnemonic()));
        json.member("extension",
                    std::string_view(entry.from.extension()));
        json.member("tp_changed", entry.tp_changed);
        json.member("lat_changed", entry.lat_changed);
        json.key("from").beginObject();
        json.member("tp", entry.from.tpMeasured());
        json.member("max_latency", entry.from.maxLatency());
        json.member("ports", std::string_view(
                                 entry.from.portUsage().toString()));
        json.endObject();
        json.key("to").beginObject();
        json.member("tp", entry.to.tpMeasured());
        json.member("max_latency", entry.to.maxLatency());
        json.member("ports", std::string_view(
                                 entry.to.portUsage().toString()));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return jsonResponse(std::move(json).str());
}

HttpResponse
QueryService::handleDiff(const HttpRequest &request,
                         const ServingState &state)
{
    const db::DatabaseCatalog &catalog = *state.catalog;
    auto a = parseArchParam(request, "a");
    auto b = parseArchParam(request, "b");
    if (!a || !b)
        return errorResponse(400, "usage: /diff?a=NHM&b=SKL");

    db::CatalogDiff diff = catalog.diff(*a, *b);

    JsonWriter json;
    json.beginObject();
    json.member("a", std::string_view(uarch::uarchShortName(*a)));
    json.member("b", std::string_view(uarch::uarchShortName(*b)));
    json.member("common", diff.common);
    json.key("changed").beginArray();
    for (const db::CatalogDiff::Entry &entry : diff.changed) {
        json.beginObject();
        json.member("name", std::string_view(entry.a.name()));
        json.member("tp_differs", entry.tp_differs);
        json.member("ports_differ", entry.ports_differ);
        json.member("latency_differs", entry.latency_differs);
        json.key("a").beginObject();
        json.member("ports", std::string_view(
                                 entry.a.portUsage().toString()));
        json.member("tp", entry.a.tpMeasured());
        json.member("max_latency", entry.a.maxLatency());
        json.endObject();
        json.key("b").beginObject();
        json.member("ports", std::string_view(
                                 entry.b.portUsage().toString()));
        json.member("tp", entry.b.tpMeasured());
        json.member("max_latency", entry.b.maxLatency());
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.key("only_a").beginArray();
    for (const std::string &name : diff.only_a)
        json.value(std::string_view(name));
    json.endArray();
    json.key("only_b").beginArray();
    for (const std::string &name : diff.only_b)
        json.value(std::string_view(name));
    json.endArray();
    json.endObject();
    return jsonResponse(std::move(json).str());
}

const QueryService::PredictContext &
QueryService::predictContext(ServingState &state, uarch::UArch arch)
{
    std::lock_guard<std::mutex> lock(state.predict_mutex);
    auto it = state.predict_contexts.find(arch);
    if (it == state.predict_contexts.end()) {
        auto context = std::make_unique<PredictContext>();
        context->set =
            state.catalog->toCharacterizationSet(arch, instrs_);
        context->predictor =
            std::make_unique<core::PerformancePredictor>(context->set);
        it = state.predict_contexts.emplace(arch, std::move(context))
                 .first;
    }
    return *it->second;
}

namespace {

/** Instruction lines in a listing, with assemble()'s line semantics
 *  ('#' comments, blank lines). Admission control must not depend on
 *  doing the parse work it exists to bound, so this is a raw scan. */
size_t
countInstructionLines(const std::string &listing)
{
    size_t count = 0;
    for (const auto &raw : split(listing, '\n')) {
        std::string line = raw.substr(0, raw.find('#'));
        if (!trim(line).empty())
            ++count;
    }
    return count;
}

} // namespace

HttpResponse
QueryService::handlePredict(const HttpRequest &request,
                            ServingState &state, obs::SpanSet *spans,
                            bool debug_timings)
{
    auto span = [spans](const char *name) {
        return spans != nullptr ? spans->span(name)
                                : obs::SpanSet::Scope();
    };
    obs::SpanSet::Scope root = span("predict");

    std::optional<uarch::UArch> arch;
    std::string listing;
    {
        auto parse_span = span("parse");
        arch = parseArchParam(request, "uarch");
        if (!arch)
            return errorResponse(
                400,
                "usage: /predict?uarch=SKL&asm=ADD RAX, RBX; ... "
                "(or POST the listing as the request body)");

        if (request.method == "POST") {
            listing = request.body;
        } else if (auto text = request.param("asm")) {
            listing = *text;
        }
        if (listing.empty())
            return errorResponse(400,
                                 "missing kernel: pass ?asm= or a "
                                 "POST body with one instruction per "
                                 "line");

        const PredictAdmission &admission = options_.admission;
        if (listing.size() > admission.max_listing_bytes) {
            rejected_oversize_->inc();
            JsonWriter json;
            json.beginObject();
            json.member("error", "kernel listing too large");
            json.member("status", 413);
            json.member("rejected_by", "admission");
            json.member("listing_bytes", listing.size());
            json.member("max_listing_bytes",
                        admission.max_listing_bytes);
            json.endObject();
            HttpResponse response;
            response.status = 413;
            response.body = std::move(json).str();
            return response;
        }

        // Accept ';' as a line separator so kernels fit in a query
        // string.
        for (char &c : listing)
            if (c == ';')
                c = '\n';

        size_t instructions = countInstructionLines(listing);
        if (instructions == 0)
            return errorResponse(400, "empty kernel");
        if (instructions > admission.max_instructions) {
            rejected_oversize_->inc();
            JsonWriter json;
            json.beginObject();
            json.member("error", "kernel has too many instructions");
            json.member("status", 413);
            json.member("rejected_by", "admission");
            json.member("instructions", instructions);
            json.member("max_instructions",
                        admission.max_instructions);
            json.endObject();
            HttpResponse response;
            response.status = 413;
            response.body = std::move(json).str();
            return response;
        }
    }

    isa::Kernel kernel;
    {
        auto assemble_span = span("assemble");
        kernel = isa::assemble(instrs_, listing);
    }
    if (kernel.empty())
        return errorResponse(400, "empty kernel");

    // The memo key is the exact simulation fingerprint, so every
    // spelling of one kernel (GET vs POST, ';' vs newlines, comments,
    // whitespace) shares a single entry — and a hit is byte-identical
    // to a cold render by construction. Epoch-keyed because the
    // static-analysis half of the body is generation-dependent.
    // Debug-timings responses carry per-request span data, so they
    // neither read nor populate the memo.
    std::string memo_key = sim::BlockPredictor::fingerprint(*arch, kernel);
    if (!debug_timings) {
        if (auto memoized = kernel_memo_.get(memo_key, state.epoch)) {
            HttpResponse response = *memoized;
            response.cache_hit = true;
            instruments_[static_cast<size_t>(Endpoint::Predict)]
                .cache_hits->inc();
            return response;
        }
    }

    sim::Measurement measured;
    try {
        auto simulate_span = span("simulate");
        measured = engine_.simulate(*arch, kernel);
    } catch (const sim::CycleBudgetExceeded &e) {
        rejected_budget_->inc();
        JsonWriter json;
        json.beginObject();
        json.member("error", std::string_view(e.what()));
        json.member("status", 429);
        json.member("rejected_by", "admission");
        json.member("cycle_budget", e.budget());
        json.endObject();
        HttpResponse response;
        response.status = 429;
        response.body = std::move(json).str();
        return response;
    } catch (const PredictOverloaded &e) {
        rejected_busy_->inc();
        JsonWriter json;
        json.beginObject();
        json.member("error", std::string_view(e.what()));
        json.member("status", 429);
        json.member("rejected_by", "admission");
        json.member("max_inflight", e.maxInflight());
        json.endObject();
        HttpResponse response;
        response.status = 429;
        response.body = std::move(json).str();
        return response;
    }
    // Any other FatalError (e.g. an instruction the generation lacks)
    // falls through to handle()'s 400.

    // Static IACA-style analysis from the serving generation's
    // catalog. Simulation is ground truth and works on any of the
    // nine generations; analysis additionally needs catalog coverage
    // of every instruction, so thin catalogs degrade to
    // "analysis": null with the reason, not an error.
    const core::Prediction *analysis = nullptr;
    core::Prediction analysis_storage;
    std::string analysis_error;
    {
        auto analysis_span = span("analysis");
        try {
            const PredictContext &context =
                predictContext(state, *arch);
            analysis_storage = context.predictor->analyzeLoop(kernel);
            analysis = &analysis_storage;
        } catch (const FatalError &e) {
            analysis_error = e.what();
        }
    }

    obs::SpanSet::Scope render_span = span("render");
    int num_ports = uarch::uarchInfo(*arch).num_ports;
    JsonWriter json;
    json.beginObject();
    json.member("uarch",
                std::string_view(uarch::uarchShortName(*arch)));
    json.member("generation", state.catalog->generation());
    json.member("instructions", kernel.size());
    json.key("kernel").beginArray();
    for (const isa::InstrInstance &inst : kernel)
        json.value(std::string_view(inst.toAsm()));
    json.endArray();
    json.member("block_throughput", measured.cycles);
    json.key("simulation").beginObject();
    json.member("cycles_per_iteration", measured.cycles);
    json.member("uops_issued", measured.uops_issued);
    json.member("uops_eliminated", measured.uops_eliminated);
    json.key("port_pressure").beginArray();
    for (int p = 0; p < num_ports; ++p)
        json.value(measured.port_uops[static_cast<size_t>(p)]);
    json.endArray();
    json.endObject();
    if (analysis != nullptr) {
        json.key("analysis").beginObject();
        json.member("block_throughput", analysis->block_throughput);
        json.member("bottleneck",
                    std::string_view(analysis->bottleneck));
        json.key("bounds").beginObject();
        json.member("ports", analysis->port_bound);
        json.member("dependencies", analysis->dependency_bound);
        json.member("frontend", analysis->frontend_bound);
        json.member("divider", analysis->divider_bound);
        json.endObject();
        json.key("port_pressure").beginArray();
        for (int p = 0; p < num_ports; ++p)
            json.value(
                analysis->port_pressure[static_cast<size_t>(p)]);
        json.endArray();
        json.endObject();
    } else {
        json.key("analysis").valueNull();
        json.member("analysis_error",
                    std::string_view(analysis_error));
    }

    // Close the phase spans before rendering them: the "timings"
    // member is written last so the render span covers the rest of
    // the body's assembly.
    render_span.end();
    root.end();
    if (debug_timings && spans != nullptr) {
        json.key("timings").beginArray();
        for (const obs::SpanSet::Entry &entry : spans->entries()) {
            json.beginObject();
            json.member("name", std::string_view(entry.name));
            json.member("depth", static_cast<long>(entry.depth));
            json.member("start_us", entry.start_us);
            json.member("dur_us", entry.dur_us);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();

    HttpResponse response = jsonResponse(std::move(json).str());
    if (!debug_timings)
        kernel_memo_.put(memo_key, state.epoch, response);
    return response;
}

HttpResponse
QueryService::handleReload(const HttpRequest &)
{
    StatePtr installed;
    db::RecoveryReport report;
    try {
        installed = reloadState(report);
    } catch (const std::exception &e) {
        // Configuration problems (no reloader) and reload failures
        // are the server's fault, not the client's: uniformly 503.
        // The body names the generation that *keeps* serving so an
        // operator reading the rejection knows the blast radius is
        // zero — fail-operational, not fail-stop.
        StatePtr current = state();
        JsonWriter json;
        json.beginObject();
        json.member("error", std::string_view(e.what()));
        json.member("status", 503);
        json.member("reason", "reload_rejected");
        json.member("serving_generation",
                    current->catalog->generation());
        json.member("serving_epoch", current->epoch);
        json.endObject();
        HttpResponse response = jsonResponse(std::move(json).str());
        response.status = 503;
        return response;
    }

    // Render from the state *this* reload installed — a racing
    // reload may already have replaced it, but this response must
    // describe the generation its own swap published.
    JsonWriter json;
    json.beginObject();
    json.member("status", "reloaded");
    json.member("generation", installed->catalog->generation());
    json.member("epoch", installed->epoch);
    json.member("records", installed->catalog->numRecords());
    json.key("uarches").beginArray();
    for (uarch::UArch arch : installed->catalog->uarches())
        json.value(std::string_view(uarch::uarchShortName(arch)));
    json.endArray();
    if (report.recovered || !report.events.empty()) {
        json.key("recovery").beginObject();
        json.member("recovered", report.recovered);
        json.member("rejected_generations",
                    report.rejected_generations.size());
        json.key("events").beginArray();
        size_t shown = 0;
        for (const std::string &event : report.events) {
            if (++shown > 16)
                break;
            json.value(std::string_view(event));
        }
        json.endArray();
        json.member("summary", std::string_view(report.summary()));
        json.endObject();
    }
    json.endObject();
    return jsonResponse(std::move(json).str());
}

HttpResponse
QueryService::handleMetrics()
{
    // The service registry plus the process-wide one (catalog
    // recovery, sweep progress) in one scrape. Never cached: a
    // scrape is a point-in-time read by definition.
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry_.renderPrometheus();
    response.body += obs::Registry::global().renderPrometheus();
    return response;
}

} // namespace uops::server
