/**
 * @file
 * The `serve_hot` workload: a closed-loop client on 2 loopback
 * keep-alive connections against the epoll-reactor server, each
 * sending 16-deep pipelined GETs drawn from a small seeded set (blob
 * bodies, ?uarch= fragments, If-None-Match 304s, repeated /search,
 * /analytics/regressions and /predict?asm= targets) that fits the
 * response cache. The access log runs at Info into a counting sink.
 *
 * The served catalog is built from the seed before set-up by the
 * sweep pipeline over an eighth of the ISA. Every request's expected
 * status and body length are computed in-process before set-up; a
 * sample of responses is byte-compared with the serving stack's own
 * QueryService::handle() after the load.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "db/scan.h"
#include "isa/kernel.h"
#include "server/blob_store.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/service.h"
#include "sim/block_predict.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace uops;

namespace {

constexpr const char *kRequestId = "X-Request-Id: perfbench-0001\r\n";
constexpr const char *kLayout =
    "serve_hot connections=2 depth=16 reactor=1 pool=2 engine=2";
constexpr size_t kConnections = 2;
constexpr size_t kSetups = 16;         ///< set-ups per burst (median)
constexpr double kWindowSeconds = 1.0; ///< throughput window
constexpr size_t kSampleEvery = 61;    ///< byte-compare 1 in N ...
constexpr size_t kMaxSamples = 500;    ///< ... up to this many per stream

// ---- requests ---------------------------------------------------------

enum class Kind : uint8_t { Other, Search, Predict };

/** What a response must look like. */
struct Expect
{
    int status = 200;
    size_t body_len = 0;
    Kind kind = Kind::Other;
    int32_t ref = 0;  ///< index into Plan::refs
};

struct Batch
{
    std::string bytes;
    std::vector<Expect> expect;
};

/** One request the generators produced. */
struct Request
{
    std::string method = "GET";
    std::string target;
    std::string extra_headers;
    std::string body;
    Kind kind = Kind::Other;

    std::string
    wire() const
    {
        std::string out = method + " " + target + " HTTP/1.1\r\nHost: x\r\n";
        out += kRequestId;
        out += extra_headers;
        if (method == "POST")
            out += "Content-Length: " + std::to_string(body.size()) +
                   "\r\n";
        out += "\r\n";
        out += body;
        return out;
    }

    server::HttpRequest
    parsed() const
    {
        std::string bytes = wire();
        size_t head_end = *server::findHeaderEnd(bytes);
        server::HttpRequest request =
            server::parseRequestHead(std::string_view(bytes).substr(0, head_end));
        request.body = body;
        return request;
    }
};

std::string
percentEncode(std::string_view s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : s) {
        if (std::isalnum(c) || c == '_' || c == '-' || c == '.') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

// ---- seeded generators ------------------------------------------------

/** A /search or /analytics/regressions query, kept both as a target
 *  and as the structured query the in-process probes run. */
struct ScanSpec
{
    bool analytics = false;
    std::string target;
    db::Query query;
    db::AnalyticsQuery analytics_query;
};

class Generator
{
  public:
    Generator(const db::DatabaseCatalog &catalog, uint64_t seed)
        : catalog_(catalog), rng_(seed * 0x9E3779B97F4A7C15ULL + 17)
    {
        arches_ = catalog.uarches();
        for (uarch::UArch arch : arches_) {
            const db::InstructionDatabase *shard = catalog.shard(arch);
            for (uint32_t row = 0; row < shard->numRecords(); ++row) {
                std::string name(shard->record(row).name());
                if (names_set_.insert(name).second)
                    names_.push_back(name);
                const isa::InstrVariant *v = instrDb().byName(name);
                if (v != nullptr && kernelCandidate(*v, arch))
                    kernel_variants_[arch].push_back(v);
            }
        }
    }

    uint64_t below(uint64_t n) { return rng_.nextBelow(n); }

    uarch::UArch
    arch()
    {
        return arches_[below(arches_.size())];
    }

    const std::string &
    name()
    {
        return names_[below(names_.size())];
    }

    /** A uarch whose shard holds @p name. */
    uarch::UArch
    archOf(const std::string &name)
    {
        std::vector<db::RecordView> records = catalog_.findByName(name);
        return records[below(records.size())].arch();
    }

    /** A compound search every predicate of which a random record
     *  of the uarch satisfies, so the result is never empty. */
    ScanSpec
    search()
    {
        ScanSpec spec;
        uarch::UArch arch = this->arch();
        db::RecordView record = randomRecord(arch);
        db::Query &q = spec.query;
        q.arch = arch;
        std::string target =
            "/search?uarch=" + uarch::uarchShortName(arch);
        int picked = 0;
        while (picked == 0) {
            if (below(3) == 0) {
                q.mnemonic = std::string(record.mnemonic());
                target += "&mnemonic=" + percentEncode(*q.mnemonic);
                ++picked;
            } else if (below(3) == 0) {
                q.extension = std::string(record.extension());
                target += "&extension=" + percentEncode(*q.extension);
                ++picked;
            }
            uarch::PortMask ports = record.portUnion();
            if (ports != 0 && below(2) == 0) {
                std::vector<int> list = uarch::portsOf(ports);
                uarch::PortMask some =
                    static_cast<uarch::PortMask>(1u << list[below(list.size())]);
                q.uses_ports = some;
                target += "&uses=" + uarch::portMaskName(some);
                ++picked;
            } else if (ports != 0 && below(2) == 0) {
                int extra = static_cast<int>(below(6));
                uarch::PortMask only =
                    static_cast<uarch::PortMask>(ports | (1u << extra));
                q.ports_subset = only;
                target += "&uses_only=" + uarch::portMaskName(only);
                ++picked;
            }
            if (below(2) == 0) {
                q.uops_max = record.uopCount() + static_cast<int>(below(3));
                target += "&uops_max=" + std::to_string(*q.uops_max);
                ++picked;
            }
            if (below(3) == 0) {
                q.lat_max = record.maxLatency() + static_cast<int>(below(4));
                target += "&lat_max=" + std::to_string(*q.lat_max);
                ++picked;
            }
            if (below(4) == 0) {
                int64_t hundredths =
                    record.tpMeasured().hundredths() +
                    static_cast<int64_t>(below(200));
                char text[32];
                std::snprintf(text, sizeof text, "%lld.%02lld",
                              static_cast<long long>(hundredths / 100),
                              static_cast<long long>(hundredths % 100));
                q.tp_max = db::tpBoundMax(std::stod(text));
                target += "&tp_max=" + std::string(text);
                ++picked;
            }
        }
        q.limit = 5 + below(60);
        target += "&limit=" + std::to_string(q.limit);
        spec.target = std::move(target);
        return spec;
    }

    /** A cross-generation analytics query between two served uarches,
     *  optionally pre-filtered by a mnemonic or extension. */
    ScanSpec
    analytics()
    {
        ScanSpec spec;
        spec.analytics = true;
        db::AnalyticsQuery &q = spec.analytics_query;
        q.from = arch();
        do {
            q.to = arch();
        } while (arches_.size() > 1 && q.to == q.from);
        static const char *metrics[] = {"tp", "latency", "any"};
        static const char *directions[] = {"regressed", "improved",
                                           "changed"};
        size_t m = below(3), d = below(3);
        q.metric = static_cast<db::AnalyticsQuery::Metric>(m);
        q.direction = static_cast<db::AnalyticsQuery::Direction>(d);
        std::string target = "/analytics/regressions?from=" +
                             uarch::uarchShortName(q.from) +
                             "&to=" + uarch::uarchShortName(q.to) +
                             "&metric=" + metrics[m] +
                             "&direction=" + directions[d];
        db::RecordView record = randomRecord(q.from);
        if (below(2) == 0) {
            q.filter.mnemonic = std::string(record.mnemonic());
            target += "&mnemonic=" + percentEncode(*q.filter.mnemonic);
        } else {
            q.filter.extension = std::string(record.extension());
            target += "&extension=" + percentEncode(*q.filter.extension);
        }
        q.filter.limit = 5 + below(40);
        q.limit = q.filter.limit;
        target += "&limit=" + std::to_string(q.limit);
        spec.target = std::move(target);
        return spec;
    }

    /** A 2-5 instruction kernel over variants the uarch's shard holds
     *  (so the static analysis renders too); memory displacements stay
     *  far below the assembler's limit. Empty when it does not
     *  assemble back to instructions the uarch supports. */
    std::string
    kernel(uarch::UArch arch)
    {
        const auto &variants = kernel_variants_[arch];
        if (variants.empty())
            return {};
        isa::Kernel kernel;
        size_t n = 2 + below(4);
        for (size_t i = 0; i < n; ++i) {
            const isa::InstrVariant &v = *variants[below(variants.size())];
            std::vector<isa::OperandValue> values;
            for (int idx : v.explicitOperands()) {
                const isa::OperandSpec &spec = v.operand(idx);
                isa::OperandValue value;
                switch (spec.kind) {
                  case isa::OpKind::Reg: {
                    int index = spec.fixed_reg >= 0
                                    ? spec.fixed_reg
                                    : static_cast<int>(below(
                                          isa::regClassCount(spec.reg_class)));
                    value.reg = isa::Reg{spec.reg_class, index};
                    break;
                  }
                  case isa::OpKind::Mem:
                    value.mem.base = isa::Reg{
                        isa::RegClass::Gpr64,
                        static_cast<int>(8 + below(8))};
                    value.mem.tag = static_cast<int>(below(4096));
                    break;
                  case isa::OpKind::Imm:
                    value.imm = static_cast<long>(below(100));
                    break;
                  case isa::OpKind::Flags:
                    break;
                }
                values.push_back(value);
            }
            kernel.push_back(isa::makeInstance(v, values));
        }
        std::string listing = isa::kernelToAsm(kernel);
        try {
            const uarch::UArchInfo &info = uarch::uarchInfo(arch);
            for (const isa::InstrInstance &inst :
                 isa::assemble(instrDb(), listing))
                if (!info.supports(*inst.variant) ||
                    !kernelCandidate(*inst.variant, arch))
                    return {};
        } catch (const std::exception &) {
            return {};
        }
        return listing;
    }

  private:
    static bool
    kernelCandidate(const isa::InstrVariant &v, uarch::UArch arch)
    {
        const isa::InstrAttributes &a = v.attrs();
        return !a.uses_divider && !a.is_system && !a.is_serializing &&
               !a.is_branch && !a.is_pause && !a.is_cf_reg &&
               !a.has_lock_prefix && !a.has_rep_prefix &&
               uarch::uarchInfo(arch).supports(v);
    }

    db::RecordView
    randomRecord(uarch::UArch arch)
    {
        const db::InstructionDatabase *shard = catalog_.shard(arch);
        return shard->record(
            static_cast<uint32_t>(below(shard->numRecords())));
    }

    const db::DatabaseCatalog &catalog_;
    Rng rng_;
    std::vector<uarch::UArch> arches_;
    std::vector<std::string> names_;
    std::unordered_set<std::string> names_set_;
    std::map<uarch::UArch, std::vector<const isa::InstrVariant *>>
        kernel_variants_;
};

/** Distinct search/analytics specs, 1 in 8 analytics. */
std::vector<ScanSpec>
scanSpecs(Generator &gen, size_t count)
{
    std::vector<ScanSpec> specs;
    std::unordered_set<std::string> seen;
    while (specs.size() < count) {
        ScanSpec spec = specs.size() % 8 == 7 ? gen.analytics()
                                               : gen.search();
        if (seen.insert(spec.target).second)
            specs.push_back(std::move(spec));
    }
    return specs;
}

/** Distinct (uarch, kernel) pairs. */
std::vector<std::pair<uarch::UArch, std::string>>
kernels(Generator &gen, size_t count)
{
    std::vector<std::pair<uarch::UArch, std::string>> out;
    std::unordered_set<std::string> seen;
    while (out.size() < count) {
        uarch::UArch arch = gen.arch();
        std::string listing = gen.kernel(arch);
        if (!listing.empty() &&
            seen.insert(uarch::uarchShortName(arch) + listing).second)
            out.emplace_back(arch, std::move(listing));
    }
    return out;
}

Request
get(std::string target)
{
    Request r;
    r.target = std::move(target);
    return r;
}

Request
predictGet(uarch::UArch arch, const std::string &listing)
{
    std::string asm_text = listing;
    std::replace(asm_text.begin(), asm_text.end(), '\n', ';');
    if (!asm_text.empty() && asm_text.back() == ';')
        asm_text.pop_back();
    Request r;
    r.target = "/predict?uarch=" + uarch::uarchShortName(arch) +
               "&asm=" + percentEncode(asm_text);
    r.kind = Kind::Predict;
    return r;
}

Request
predictPost(uarch::UArch arch, const std::string &listing)
{
    Request r;
    r.method = "POST";
    r.target = "/predict?uarch=" + uarch::uarchShortName(arch);
    r.body = listing;
    r.kind = Kind::Predict;
    return r;
}

Request
scanRequest(const ScanSpec &spec)
{
    Request r;
    r.target = spec.target;
    r.kind = Kind::Search;
    return r;
}

// ---- the serving stack --------------------------------------------------

server::QueryService::Options
serviceOptions()
{
    server::QueryService::Options options;
    options.engine.num_threads = 2;
    return options;
}

/** Bytes the access log handed to the sink. */
struct LogCounter
{
    std::atomic<uint64_t> bytes{0};
};

/** Catalog + service + listener, as `uopsq serve` runs them (without
 *  a reloader: this workload sends no POST /reload). */
struct Stack
{
    double open_ms = 0;  ///< the hash-verified loadCatalogDir
    std::shared_ptr<const db::DatabaseCatalog> catalog;
    std::unique_ptr<server::QueryService> service;
    std::unique_ptr<server::HttpServer> http;

    ~Stack()
    {
        if (http)
            http->stop();
    }
};

server::HttpServer::Options
httpOptions()
{
    server::HttpServer::Options options;
    options.num_threads = 2;
    options.reactor_threads = 1;
    options.max_requests_per_connection = SIZE_MAX;
    options.keep_alive_idle_seconds = 30;
    options.recv_timeout_seconds = 30;
    options.drain_deadline_ms = 2000;
    return options;
}

/** One set-up: open the catalog hash-verified, build the service
 *  (and its blob store) with the access log at Info into @p log, and
 *  start the listener. */
std::unique_ptr<Stack>
bringUp(const std::string &dir, LogCounter &log, Tracer &tracer,
        uint32_t parent)
{
    auto stack = std::make_unique<Stack>();
    {
        Tracer::Scope span = tracer.span("db.open", parent);
        Clock::time_point t0 = Clock::now();
        stack->catalog = db::loadCatalogDir(dir);
        stack->open_ms = secondsSince(t0) * 1e3;
    }
    {
        Tracer::Scope span = tracer.span("server.service", parent);
        server::QueryService::Options options = serviceOptions();
        options.log_level = obs::LogLevel::Info;
        stack->service = std::make_unique<server::QueryService>(
            stack->catalog, instrDb(), options);
        stack->service->logger().setSink([&log](std::string_view line) {
            log.bytes.fetch_add(line.size() + 1, std::memory_order_relaxed);
        });
    }
    {
        Tracer::Scope span = tracer.span("server.listen", parent);
        stack->http = std::make_unique<server::HttpServer>(*stack->service,
                                                           httpOptions());
        stack->http->start();
    }
    return stack;
}

// ---- client ---------------------------------------------------------------

class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            fd_ = -1;
            return;
        }
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        timeval timeout{30, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(std::string_view bytes)
    {
        while (!bytes.empty()) {
            ssize_t n = ::send(fd_, bytes.data(), bytes.size(),
                               MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            bytes.remove_prefix(static_cast<size_t>(n));
        }
        return true;
    }

    /** Read one Content-Length framed response; @p body stays valid
     *  until the next call. */
    bool
    read(int &status, std::string_view &body)
    {
        size_t head_end;
        while (true) {
            size_t pos = in_.find("\r\n\r\n", off_);
            if (pos != std::string::npos) {
                head_end = pos + 4;
                break;
            }
            if (!fill())
                return false;
        }
        std::string_view head(in_.data() + off_, head_end - off_);
        if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ")
            return false;
        status = std::atoi(std::string(head.substr(9, 3)).c_str());
        size_t length = 0;
        size_t cl = head.find("\r\nContent-Length: ");
        if (cl != std::string_view::npos)
            length = std::strtoull(head.data() + cl + 18, nullptr, 10);
        while (in_.size() < head_end + length)
            if (!fill())
                return false;
        body = std::string_view(in_.data() + head_end, length);
        off_ = head_end + length;
        return true;
    }

  private:
    bool
    fill()
    {
        if (off_ > 0 && off_ == in_.size()) {
            in_.clear();
            off_ = 0;
        } else if (off_ > (1u << 16)) {
            in_.erase(0, off_);
            off_ = 0;
        }
        char chunk[65536];
        ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        in_.append(chunk, static_cast<size_t>(n));
        return true;
    }

    int fd_ = -1;
    std::string in_;
    size_t off_ = 0;
};

/** One response over a fresh connection (set-up probe, /metrics). */
bool
fetchOnce(uint16_t port, const std::string &wire, int &status,
          std::string &body)
{
    Client client(port);
    std::string_view view;
    if (!client.ok() || !client.send(wire) || !client.read(status, view))
        return false;
    body.assign(view);
    return true;
}

/** Latencies (µs) and correct responses within one window. */
struct Window
{
    LogHistogram latency_us;
    uint64_t ok = 0;
};

/** What one connection's closed loop observed. */
struct StreamStats
{
    std::vector<Window> windows;
    LogHistogram search_us;
    LogHistogram predict_us;
    uint64_t ok = 0;
    uint64_t bad = 0;
    std::vector<std::pair<int32_t, std::string>> samples;
    std::vector<std::string> errors;
};

/** Send @p batches in turn, each whole before reading its responses,
 *  until @p deadline. */
void
runStream(uint16_t port, const std::vector<Batch> &batches,
          Clock::time_point start, Clock::time_point deadline,
          StreamStats &stats)
{
    Client client(port);
    if (!client.ok()) {
        stats.errors.push_back("connect failed");
        ++stats.bad;
        return;
    }
    uint64_t counter = 0;
    for (size_t next = 0; Clock::now() < deadline; ++next) {
        const Batch &batch = batches[next % batches.size()];
        Clock::time_point sent = Clock::now();
        if (!client.send(batch.bytes)) {
            stats.bad += batch.expect.size();
            stats.errors.push_back("send failed");
            return;
        }
        for (const Expect &expect : batch.expect) {
            int status = 0;
            std::string_view body;
            if (!client.read(status, body)) {
                stats.bad += 1;
                stats.errors.push_back("connection lost");
                return;
            }
            Clock::time_point now = Clock::now();
            if (status != expect.status || body.size() != expect.body_len) {
                ++stats.bad;
                if (stats.errors.size() < 5)
                    stats.errors.push_back(
                        "status " + std::to_string(status) + " (want " +
                        std::to_string(expect.status) + "), body " +
                        std::to_string(body.size()) + " bytes (want " +
                        std::to_string(expect.body_len) + ")");
                continue;
            }
            ++stats.ok;
            double us =
                std::chrono::duration<double, std::micro>(now - sent).count();
            size_t w = static_cast<size_t>(
                std::chrono::duration<double>(now - start).count() /
                kWindowSeconds);
            if (w >= stats.windows.size())
                stats.windows.resize(w + 1);
            stats.windows[w].latency_us.add(us);
            ++stats.windows[w].ok;
            if (expect.kind == Kind::Search)
                stats.search_us.add(us);
            else if (expect.kind == Kind::Predict)
                stats.predict_us.add(us);
            if (++counter % kSampleEvery == 0 &&
                stats.samples.size() < kMaxSamples)
                stats.samples.emplace_back(expect.ref, std::string(body));
        }
    }
}

/** Merged view of all connections over one load phase. Rates and
 *  percentiles are medians over the phase's whole 1 s windows. */
struct LoadResult
{
    double throughput = 0;  ///< correct responses/s
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double search_p50_ms = 0;
    double predict_p50_ms = 0;
    uint64_t ok = 0;
    std::vector<std::pair<int32_t, std::string>> samples;
};

/** Run one connection per stream for @p seconds. */
LoadResult
runLoad(uint16_t port, const std::vector<std::vector<Batch>> &streams,
        double seconds, Result &checks)
{
    const size_t whole = static_cast<size_t>(seconds / kWindowSeconds);
    std::vector<StreamStats> stats(streams.size());
    for (StreamStats &s : stats)
        s.windows.resize(whole + 2);
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> threads;
        for (size_t i = 0; i < streams.size(); ++i)
            threads.emplace_back([&, i] {
                runStream(port, streams[i], start, deadline, stats[i]);
            });
        for (std::thread &t : threads)
            t.join();
    }
    double elapsed = secondsSince(start);

    LoadResult load;
    uint64_t bad = 0;
    std::vector<Window> windows(std::max<size_t>(whole, 1));
    LogHistogram search_us, predict_us;
    for (StreamStats &s : stats) {
        load.ok += s.ok;
        bad += s.bad;
        for (const std::string &e : s.errors)
            std::fprintf(stderr, "serve: %s\n", e.c_str());
        for (size_t w = 0; w < windows.size(); ++w) {
            windows[w].latency_us.merge(s.windows[w].latency_us);
            windows[w].ok += s.windows[w].ok;
        }
        search_us.merge(s.search_us);
        predict_us.merge(s.predict_us);
        for (auto &sample : s.samples)
            load.samples.push_back(std::move(sample));
    }
    std::vector<double> rates, p50s, p95s, p99s;
    for (const Window &w : windows) {
        if (w.ok == 0)
            continue;
        rates.push_back(static_cast<double>(w.ok) / kWindowSeconds);
        p50s.push_back(w.latency_us.quantile(0.5) * 1e-3);
        p95s.push_back(w.latency_us.quantile(0.95) * 1e-3);
        p99s.push_back(w.latency_us.quantile(0.99) * 1e-3);
    }
    if (whole == 0)
        // Shorter than one window: the whole phase is the sample.
        rates.assign(1, static_cast<double>(load.ok) / elapsed);
    load.throughput = median(rates);
    load.p50_ms = median(p50s);
    load.p95_ms = median(p95s);
    load.p99_ms = median(p99s);
    load.search_p50_ms = search_us.quantile(0.5) * 1e-3;
    load.predict_p50_ms = predict_us.quantile(0.5) * 1e-3;
    checks.attempted += load.ok + bad;
    if (bad > 0) {
        checks.failed += bad;
        checks.correct = false;
    }
    return load;
}

// ---- the plan -------------------------------------------------------------

/** Everything the load sends, planned before set-up. */
struct Plan
{
    std::vector<Request> refs;  ///< the distinct requests
    std::vector<std::vector<Batch>> streams;  ///< one per connection
    std::vector<ScanSpec> probe_scans;
    std::vector<std::pair<uarch::UArch, std::string>> probe_kernels;
    std::string uarchs_body;  ///< what the set-up probe must read
};

int32_t
addRef(Plan &plan, Request request)
{
    plan.refs.push_back(std::move(request));
    return static_cast<int32_t>(plan.refs.size() - 1);
}

/**
 * A small seeded set of blob, fragment, 304, /search, analytics and
 * /predict?asm= targets that fits the response cache, in 128 batches
 * of 16 split over the connections. Every request's status and body
 * length come from an in-process service over @p catalog; it and the
 * catalog are released on return, before set-up.
 */
Plan
planLoad(std::shared_ptr<const db::DatabaseCatalog> catalog, uint64_t seed,
         Result &checks)
{
    Generator gen(*catalog, seed);
    server::QueryService reference(catalog, instrDb(), serviceOptions());
    server::HttpResponse uarchs = reference.handle(get("/uarchs").parsed());

    Plan plan;
    plan.uarchs_body = std::string(uarchs.bodyView());
    std::vector<std::string> names;
    for (int i = 0; i < 48; ++i)
        names.push_back(gen.name());
    plan.probe_scans = scanSpecs(gen, 32);
    plan.probe_kernels = kernels(gen, 16);
    const std::string revalidate =
        "If-None-Match: \"" + uarchs.etag + "\"\r\n";
    std::vector<int32_t> instr, fragment, not_modified, search,
        predict;
    for (const std::string &name : names) {
        Request r;
        r.target = "/instr/" + name;
        instr.push_back(addRef(plan, r));
        Request f;
        f.target = "/instr/" + name + "?uarch=" +
                   uarch::uarchShortName(gen.archOf(name));
        fragment.push_back(addRef(plan, f));
        Request n = gen.below(2) ? r : f;
        n.extra_headers = revalidate;
        not_modified.push_back(addRef(plan, n));
    }
    Request u = get("/uarchs");
    u.extra_headers = revalidate;
    not_modified.push_back(addRef(plan, u));
    for (const ScanSpec &spec : plan.probe_scans)
        search.push_back(addRef(plan, scanRequest(spec)));
    for (const auto &[arch, listing] : plan.probe_kernels)
        predict.push_back(addRef(plan, predictGet(arch, listing)));

    std::vector<Expect> expected;
    for (size_t i = 0; i < plan.refs.size(); ++i) {
        server::HttpResponse r = reference.handle(plan.refs[i].parsed());
        checks.check(r.status == 200 || r.status == 304,
                     "serve: reference answered " +
                         std::to_string(r.status) + " to " +
                         plan.refs[i].target);
        expected.push_back(Expect{r.status, r.bodySize(), plan.refs[i].kind,
                                  static_cast<int32_t>(i)});
    }
    auto pick = [&](const std::vector<int32_t> &from) {
        return from[gen.below(from.size())];
    };
    plan.streams.resize(kConnections);
    for (int b = 0; b < 128; ++b) {
        Batch batch;
        for (int i = 0; i < 4; ++i)
            for (int32_t ref : {pick(instr), pick(fragment),
                                pick(not_modified),
                                i % 2 ? pick(search) : pick(predict)}) {
                batch.bytes += plan.refs[static_cast<size_t>(ref)].wire();
                batch.expect.push_back(expected[static_cast<size_t>(ref)]);
            }
        plan.streams[b % kConnections].push_back(std::move(batch));
    }
    return plan;
}

// ---- per-layer probes ---------------------------------------------------

/** Per-layer probes on in-process calls over the served catalog. */
void
probeLayers(const db::DatabaseCatalog &catalog, const Plan &plan,
            Tracer &tracer, uint32_t parent, LayerValues &layers)
{
    std::vector<double> search_us, render_us, analytics_us;
    size_t considered = 0, matched = 0;
    std::unique_ptr<server::QueryService> fresh;
    {
        Tracer::Scope span = tracer.span("server.service", parent);
        fresh = std::make_unique<server::QueryService>(
            std::shared_ptr<const db::DatabaseCatalog>(
                &catalog, [](const db::DatabaseCatalog *) {}),
            instrDb(), serviceOptions());
    }
    for (const ScanSpec &spec : plan.probe_scans) {
        if (spec.analytics) {
            Tracer::Scope span = tracer.span("db.analytics", parent);
            Clock::time_point t0 = Clock::now();
            catalog.analytics(spec.analytics_query);
            analytics_us.push_back(secondsSince(t0) * 1e6);
            continue;
        }
        double search = 0;
        {
            Tracer::Scope span = tracer.span("db.search", parent);
            Clock::time_point t0 = Clock::now();
            catalog.search(spec.query);
            search = secondsSince(t0) * 1e6;
        }
        search_us.push_back(search);
        {
            Tracer::Scope span = tracer.span("db.scan_stats", parent);
            db::ScanStats stats;
            db::ScanExecutor(*catalog.shard(*spec.query.arch))
                .run(db::predicatesFromQuery(spec.query), spec.query.limit,
                     &stats);
            considered += stats.rows_considered;
            matched += stats.rows_matched;
        }
        {
            Tracer::Scope span = tracer.span("server.handle", parent);
            Clock::time_point t0 = Clock::now();
            fresh->handle(scanRequest(spec).parsed());
            render_us.push_back(secondsSince(t0) * 1e6 - search);
        }
    }
    layers["db.search_us"] = median(search_us);
    layers["db.rows_per_hit"] =
        matched ? static_cast<double>(considered) / matched : 0;
    layers["db.analytics_us"] = median(analytics_us);
    layers["server.query_render_us"] = median(render_us);

    std::vector<double> assemble_us, predict_us;
    std::map<uarch::UArch, std::unique_ptr<sim::BlockPredictor>> predictors;
    for (const auto &[arch, listing] : plan.probe_kernels) {
        auto &predictor = predictors[arch];
        if (!predictor) {
            Tracer::Scope span = tracer.span("sim.predictor", parent);
            predictor =
                std::make_unique<sim::BlockPredictor>(instrDb(), arch);
        }
        isa::Kernel kernel;
        {
            Tracer::Scope span = tracer.span("isa.assemble", parent);
            Clock::time_point t0 = Clock::now();
            kernel = isa::assemble(instrDb(), listing);
            assemble_us.push_back(secondsSince(t0) * 1e6);
        }
        {
            Tracer::Scope span = tracer.span("sim.block_predict", parent);
            Clock::time_point t0 = Clock::now();
            predictor->predict(kernel);
            predict_us.push_back(secondsSince(t0) * 1e6);
        }
    }
    layers["isa.assemble_us"] = median(assemble_us);
    layers["sim.block_predict_us"] = median(predict_us);

    // The engine's exact simulation count for the probe kernels,
    // through the service's POST /predict path.
    {
        Tracer::Scope span = tracer.span("server.engine", parent);
        for (const auto &[arch, listing] : plan.probe_kernels)
            fresh->handle(predictPost(arch, listing).parsed());
        layers["server.engine_sims"] =
            static_cast<double>(fresh->engineStats().simulations);
    }
    {
        Tracer::Scope span = tracer.span("server.stop", parent);
        fresh.reset();
        predictors.clear();
    }
}

/** What an in-process replay measured. */
struct Inproc
{
    double per_s = 0;
    double raw_frac = 0;
};

/** In-process replay of the load's streams through the reactor's
 *  lanes: scanFastGet → tryServeRaw, else parseRequestHead →
 *  tryServeFast, else handle(), then serializeResponse. One thread, no
 *  sockets; each batch is a `server.lanes` span when @p tracer is on. */
Inproc
inprocReplay(server::QueryService &service, const Plan &plan,
             double seconds, Tracer &tracer, uint32_t parent)
{
    uint64_t served = 0, raw = 0, wire_bytes = 0;
    Clock::time_point t0 = Clock::now();
    do {
        for (const std::vector<Batch> &stream : plan.streams) {
            for (const Batch &batch : stream) {
                Tracer::Scope span = tracer.span("server.lanes", parent);
                std::string_view rest = batch.bytes;
                while (!rest.empty()) {
                    size_t head_end = *server::findHeaderEnd(rest);
                    std::string_view head = rest.substr(0, head_end);
                    rest.remove_prefix(head_end);
                    server::HttpResponse response;
                    server::FastGetView view;
                    if (server::scanFastGet(head, view) &&
                        service.tryServeRaw(view, response)) {
                        ++raw;
                    } else {
                        server::HttpRequest request =
                            server::parseRequestHead(head);
                        if (!service.tryServeFast(request, response))
                            response = service.handle(request);
                    }
                    wire_bytes +=
                        server::serializeResponse(response, true).size();
                    ++served;
                }
            }
        }
    } while (secondsSince(t0) < seconds);
    Inproc out;
    out.per_s = static_cast<double>(served) / secondsSince(t0);
    out.raw_frac = served ? static_cast<double>(raw) / served : 0;
    return out;
}

/** p50 of the `uops_http_request_duration_us` histogram (all
 *  endpoints) between two /metrics scrapes, interpolated in-bucket. */
double
scrapeHandleP50(const std::string &before, const std::string &after)
{
    auto parse = [](const std::string &text) {
        std::map<double, double> cumulative;  // le -> count
        const std::string prefix = "uops_http_request_duration_us_bucket{";
        size_t pos = 0;
        while ((pos = text.find(prefix, pos)) != std::string::npos) {
            size_t eol = text.find('\n', pos);
            std::string line = text.substr(pos, eol - pos);
            pos = eol;
            size_t le = line.find("le=\"");
            size_t close = line.find("\"}");
            if (le == std::string::npos || close == std::string::npos)
                continue;
            std::string bound = line.substr(le + 4, close - le - 4);
            double upper = bound == "+Inf" ? 1e300 : std::stod(bound);
            cumulative[upper] += std::stod(line.substr(close + 2));
        }
        return cumulative;
    };
    std::map<double, double> a = parse(before), b = parse(after);
    double total = b.empty() ? 0 : b.rbegin()->second -
                                       (a.empty() ? 0 : a.rbegin()->second);
    if (total <= 0)
        return 0;
    // Observations are whole (truncated) microseconds, so the bucket
    // le="U" after le="L" holds real times in [L + 1, U + 1).
    double lower = 0, below = 0;
    for (const auto &[upper, count] : b) {
        double c = count - a[upper];
        double hi = upper > 1e299 ? lower * 2 : upper + 1;
        if (c >= total / 2)
            return lower + (hi - lower) * (total / 2 - below) / (c - below);
        below = c;
        lower = hi;
    }
    return lower;
}

/** What the fixture build reported. */
struct Fixture
{
    uint64_t succeeded = 0;
    uint64_t port_exact = 0;
};

/**
 * Build the served catalog under @p base/catalog: the sweep pipeline
 * over a seeded eighth of the ISA, in a child process forked before
 * this one starts any thread, so this process's peak RSS covers
 * serving only. The child's output checks fold into @p checks.
 */
Fixture
buildFixture(uint64_t seed, const std::string &base, Result &checks)
{
    const std::string report = base + "/fixture.txt";
    pid_t pid = ::fork();
    if (pid == 0) {
        int code = 1;
        try {
            Result child;
            Tracer off(false);
            const std::string dir = base + "/catalog";
            SweepPass pass = runSweepPass(sliceFilter(seed, 8),
                                          hardwareThreads(), dir, off, 0);
            checkSweepPass(pass, dir, child);
            std::ofstream out(report);
            out << pass.succeeded << " " << pass.port_exact << " "
                << child.attempted << " " << child.failed << "\n";
            code = out ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fixture: %s\n", e.what());
        }
        std::fflush(nullptr);
        ::_exit(code);
    }
    Fixture fixture;
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        checks.fail("serve: fixture build failed");
        return fixture;
    }
    uint64_t attempted = 0, failed = 0;
    std::ifstream in(report);
    in >> fixture.succeeded >> fixture.port_exact >> attempted >> failed;
    checks.attempted += attempted;
    for (uint64_t i = 0; i < failed; ++i)
        checks.fail("serve: fixture check failed");
    return fixture;
}

} // namespace

Outcome
runServeHot(const Args &args, Tracer &tracer)
{
    Outcome outcome;
    outcome.layout = kLayout;
    Result &result = outcome.result;
    ScopedDir scratch(args.workdir + "/serve-" +
                      std::to_string(::getpid()));
    const std::string dir = scratch.path() + "/catalog";

    Fixture fixture = buildFixture(args.seed, scratch.path(), result);
    if (fixture.succeeded == 0)
        throw std::runtime_error("serve: fixture catalog was not built");
    Plan plan = planLoad(db::loadCatalogDir(dir), args.seed, result);

    // A set-up burst: kSetups bring-ups, each replacing the last.
    LogCounter log;
    std::vector<double> setups, open_ms, blob_ms;
    std::unique_ptr<Stack> stack;
    auto setupBurst = [&]() {
        Tracer::Scope root = tracer.span("serve.setup");
        for (size_t i = 0; i < kSetups; ++i) {
            {
                Tracer::Scope span = tracer.span("server.stop", root.id());
                stack.reset();
            }
            Clock::time_point t0 = Clock::now();
            stack = bringUp(dir, log, tracer, root.id());
            {
                Tracer::Scope span =
                    tracer.span("client.first_response", root.id());
                int status = 0;
                std::string body;
                bool got = fetchOnce(stack->http->port(),
                                     get("/uarchs").wire(), status, body);
                result.check(got && status == 200 &&
                                 body == plan.uarchs_body,
                             "serve: first response after set-up differs");
            }
            setups.push_back(secondsSince(t0));
            open_ms.push_back(stack->open_ms);
            if (args.trace) {
                Tracer::Scope span =
                    tracer.span("server.blob_build", root.id());
                Clock::time_point b0 = Clock::now();
                server::BlobStore::build(*stack->catalog);
                blob_ms.push_back(secondsSince(b0) * 1e3);
            }
        }
    };
    // The last stack of the first burst serves the load.
    setupBurst();
    server::QueryService &service = *stack->service;
    const uint16_t port = stack->http->port();

    // Warm-up: caches fill, lazy per-uarch predictor contexts build.
    {
        Result warm;
        runLoad(port, plan.streams, 0.5, warm);
        result.absorb(warm);
    }

    auto scrape = [&]() {
        int status = 0;
        std::string body;
        fetchOnce(port, get("/metrics").wire(), status, body);
        return body;
    };
    std::string metrics_before = scrape();
    server::ResponseCache::Stats cache_before = service.cacheStats();
    server::ResponseCache::Stats memo_before = service.kernelMemoStats();
    uint64_t log_before = log.bytes.load();

    // The load is never traced: the server's layers run on its own
    // threads, out of the benchmark's reach.
    LoadResult load = runLoad(port, plan.streams, args.seconds, result);

    std::string metrics_after = scrape();
    server::ResponseCache::Stats cache_after = service.cacheStats();
    server::ResponseCache::Stats memo_after = service.kernelMemoStats();
    uint64_t log_after = log.bytes.load();

    // Byte-compare the sampled bodies with the stack's own handle().
    for (const auto &[ref, body] : load.samples) {
        server::HttpResponse expected =
            service.handle(plan.refs[static_cast<size_t>(ref)].parsed());
        result.check(expected.bodyView() == body,
                     "serve: sampled body differs from handle()");
    }

    if (!args.trace) {
        // A second burst after the load: on a shared host the CPU's
        // speed drifts over seconds, and one burst samples one moment.
        setupBurst();
        EndToEnd e2e;
        e2e.setup_s = isaTablesSeconds() + median(setups);
        e2e.throughput_per_s = load.throughput;
        e2e.p50_ms = load.p50_ms;
        e2e.p95_ms = load.p95_ms;
        e2e.port_exact_frac =
            static_cast<double>(fixture.port_exact) / fixture.succeeded;
        setEndToEnd(result, e2e);
        return outcome;
    }

    // Traced run: the in-process lanes, traced between two plain
    // replays (the overhead reference), then the layer probes. The
    // phase is a root span.
    LayerValues layers;
    {
        Tracer::Scope root = tracer.span("serve.layers");
        Tracer off(false);
        std::vector<Inproc> replays;
        for (int i = 0; i < 3; ++i) {
            Tracer::Scope span = tracer.span("server.inproc", root.id());
            replays.push_back(inprocReplay(service, plan, 1.0,
                                           i == 1 ? tracer : off, span.id()));
        }
        double plain = (replays[0].per_s + replays[2].per_s) / 2;
        layers["server.inproc_per_s"] = plain;
        layers["server.raw_lane_frac"] = replays[0].raw_frac;
        layers["server.transport_eff"] = load.throughput / plain;
        layers["trace.overhead_frac"] = 1.0 - replays[1].per_s / plain;
        probeLayers(*stack->catalog, plan, tracer, root.id(), layers);
        {
            Tracer::Scope span = tracer.span("server.swap", root.id());
            std::vector<double> swap_ms;
            for (int i = 0; i < 5; ++i) {
                Clock::time_point t0 = Clock::now();
                service.swapCatalog(stack->catalog);
                swap_ms.push_back(secondsSince(t0) * 1e3);
            }
            layers["server.swap_ms"] = median(swap_ms);
        }
    }

    uint64_t lookups = (cache_after.hits - cache_before.hits) +
                       (cache_after.misses - cache_before.misses);
    layers["server.cache_hit_frac"] =
        lookups ? static_cast<double>(cache_after.hits - cache_before.hits) /
                      lookups
                : 0;
    uint64_t memo_lookups = (memo_after.hits - memo_before.hits) +
                            (memo_after.misses - memo_before.misses);
    layers["server.memo_hit_frac"] =
        memo_lookups
            ? static_cast<double>(memo_after.hits - memo_before.hits) /
                  memo_lookups
            : 0;
    layers["server.handle_p50_us"] =
        scrapeHandleP50(metrics_before, metrics_after);
    layers["obs.log_bytes_per_req"] =
        load.ok ? static_cast<double>(log_after - log_before) / load.ok : 0;
    layers["tail.p99_ms"] = load.p99_ms;
    layers["server.search_p50_ms"] = load.search_p50_ms;
    layers["server.predict_p50_ms"] = load.predict_p50_ms;
    layers["db.open_ms"] = median(open_ms);
    layers["server.blob_build_ms"] = median(blob_ms);
    layers["trace.unattributed_frac"] = tracer.unattributedFrac();
    setLayerMetrics(result, layers);
    return outcome;
}

} // namespace perfbench
