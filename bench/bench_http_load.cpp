/**
 * @file
 * HTTP serving load benchmark: the epoll-reactor transport on a mixed
 * keep-alive workload, end to end over loopback sockets.
 *
 * Workload: N concurrent persistent connections, each issuing batches
 * of 32 pipelined GETs — precomputed-blob hits (/instr/{name}),
 * cached /predict lookups, and mostly If-None-Match revalidations
 * (304, header-only), the shape of a warm polling client — then
 * reading all 32 responses.
 * That is the uops.info-shaped hot path this repo's serving layer is
 * optimized for: every response is a hash lookup away, so the
 * transport is the bottleneck. The reactor parses a whole pipelined
 * batch off one readiness event and flushes the queued responses with
 * iovec-coalesced sendmsg calls.
 *
 * Reported per configuration: aggregate QPS (ops_per_s) and the p99
 * per-batch round-trip latency.
 *
 * Usage, for perf tracking (BENCH_http.json):
 *
 *     bench_http_load --json <path>
 *
 * writes one record {name, iterations, wall_ms, ops_per_s, p99_us}
 * per configuration.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.h"
#include "core/batch.h"
#include "db/catalog.h"
#include "server/http_server.h"

namespace uops::bench {
namespace {

/** Small two-uarch slice: the serving content. Kept deliberately
 *  modest — the benchmark measures the transport, not the render. */
std::shared_ptr<const db::DatabaseCatalog>
sliceCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.characterizer.filter = [](const isa::InstrVariant &v) {
            return v.mnemonic() == "ADD" || v.mnemonic() == "IMUL";
        };
        return db::runCatalogSweep(
            db(), {uarch::UArch::Nehalem, uarch::UArch::Skylake},
            options, nullptr);
    }();
    return catalog;
}

/** A variant name present in the slice (blob-backed /instr target). */
const std::string &
instrName()
{
    static const std::string name = [] {
        db::Query query;
        query.mnemonic = "ADD";
        query.arch = uarch::UArch::Skylake;
        query.limit = 1;
        auto picked = sliceCatalog()->search(query);
        if (picked.empty())
            return std::string("ADD_R64_R64");
        return std::string(picked[0].name());
    }();
    return name;
}

int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent,
                           bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Consume one response (Content-Length framed; 304s are head-only)
 *  off the buffered stream. False on connection loss. @p received,
 *  when set, accumulates every byte read off the socket. */
bool
readOneResponse(int fd, std::string &carry, size_t *received = nullptr)
{
    char chunk[8192];
    size_t head_end;
    while (true) {
        size_t pos = carry.find("\r\n\r\n");
        if (pos != std::string::npos) {
            head_end = pos + 4;
            break;
        }
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        if (received != nullptr)
            *received += static_cast<size_t>(n);
        carry.append(chunk, static_cast<size_t>(n));
    }
    size_t body_bytes = 0;
    size_t cl = carry.find("Content-Length: ");
    if (cl != std::string::npos && cl < head_end)
        body_bytes = static_cast<size_t>(
            std::strtoul(carry.c_str() + cl + 16, nullptr, 10));
    while (carry.size() < head_end + body_bytes) {
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        if (received != nullptr)
            *received += static_cast<size_t>(n);
        carry.append(chunk, static_cast<size_t>(n));
    }
    carry.erase(0, head_end + body_bytes);
    return true;
}

constexpr size_t kBatchDepth = 32;

/** One batch of 32 pipelined requests: blob hits (/instr full
 *  bodies), cached /predict lookups, and a majority of If-None-Match
 *  revalidations (header-only 304s, across /uarchs and /instr
 *  targets) — the mix a polling client settles into once it caches
 *  bodies and revalidates on each poll. Every request carries a
 *  fixed-length X-Request-Id: servers echo it, which pins response
 *  sizes so the timed clients can frame replies by byte count
 *  (established during the full-parse warmup). @p etag is the
 *  serving generation's tag. */
std::string
makeBatch(const std::string &etag)
{
    const std::string &name = instrName();
    auto get = [](const std::string &target,
                  const std::string &extra = "") {
        return "GET " + target + " HTTP/1.1\r\nHost: x\r\n"
               "X-Request-Id: bench-load-01\r\n" +
               extra + "\r\n";
    };
    const std::string revalidate =
        "If-None-Match: \"" + etag + "\"\r\n";
    std::string batch;
    for (int repeat = 0; repeat < 4; ++repeat) {
        batch += get("/instr/" + name);
        batch += get("/uarchs", revalidate);
        batch += get("/instr/" + name + "?uarch=SKL", revalidate);
        batch += get("/uarchs", revalidate);
        batch += get("/instr/" + name + "?uarch=NHM", revalidate);
        batch += get("/uarchs", revalidate);
        batch += get("/instr/" + name, revalidate);
        batch += get("/predict?uarch=SKL&asm=ADD%20RAX,%20RBX");
    }
    return batch;
}

struct LoadResult
{
    size_t requests = 0;
    double wall_ms = 0;
    double ops_per_s = 0;
    double p99_us = 0;
};

/** Warmup: send one batch and full-parse its responses, returning
 *  the total reply bytes (0 on a framing error or trailing bytes).
 *  This validates the stream the timed loop then frames by count. */
size_t
warmBatch(int fd, const std::string &batch)
{
    if (!sendAll(fd, batch))
        return 0;
    std::string carry;
    size_t received = 0;
    for (size_t r = 0; r < kBatchDepth; ++r)
        if (!readOneResponse(fd, carry, &received))
            return 0;
    return carry.empty() ? received : 0;
}

/** Run @p connections concurrent keep-alive clients, each sending
 *  @p batches pipelined batches, against a server on @p port.
 *  @p batch_bytes is the known steady-state reply size per batch
 *  (from warmup): the timed clients frame replies by byte count —
 *  every byte is still received and acknowledged, none re-scanned. */
LoadResult
runLoad(uint16_t port, const std::string &etag, size_t connections,
        size_t batches, size_t batch_bytes)
{
    const std::string batch = makeBatch(etag);
    std::vector<std::vector<double>> latencies(connections);
    std::vector<std::thread> clients;
    std::atomic<size_t> completed{0};

    auto t0 = std::chrono::steady_clock::now();
    for (size_t c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            int fd = connectTo(port);
            if (fd < 0)
                return;
            char sink[16384];
            latencies[c].reserve(batches);
            for (size_t b = 0; b < batches; ++b) {
                auto b0 = std::chrono::steady_clock::now();
                if (!sendAll(fd, batch))
                    break;
                size_t need = batch_bytes;
                while (need > 0) {
                    ssize_t n = ::recv(fd, sink,
                                       std::min(need, sizeof sink), 0);
                    if (n <= 0)
                        break;
                    need -= static_cast<size_t>(n);
                }
                if (need > 0)
                    break;
                auto b1 = std::chrono::steady_clock::now();
                latencies[c].push_back(
                    std::chrono::duration<double, std::micro>(b1 - b0)
                        .count());
                completed.fetch_add(kBatchDepth,
                                    std::memory_order_relaxed);
            }
            ::close(fd);
        });
    }
    for (std::thread &client : clients)
        client.join();
    auto t1 = std::chrono::steady_clock::now();

    LoadResult result;
    result.requests = completed.load();
    result.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.ops_per_s =
        result.wall_ms > 0
            ? 1000.0 * static_cast<double>(result.requests) /
                  result.wall_ms
            : 0.0;
    std::vector<double> all;
    for (auto &per_conn : latencies)
        all.insert(all.end(), per_conn.begin(), per_conn.end());
    if (!all.empty()) {
        std::sort(all.begin(), all.end());
        result.p99_us = all[std::min(
            all.size() - 1, static_cast<size_t>(0.99 * all.size()))];
    }
    return result;
}

/** Bring up a server, warm its caches, run the load, tear down. */
LoadResult
measure(size_t connections, size_t batches)
{
    server::QueryService service(sliceCatalog(), db());
    // A load benchmark measures the serving path, not the log sink.
    service.logger().setMinLevel(obs::LogLevel::Warn);
    server::HttpServer::Options options;
    // High enough that no connection hits the per-connection budget
    // mid-run: the benchmark measures steady-state keep-alive
    // serving, not reconnect cost.
    options.max_requests_per_connection =
        (batches + 4) * kBatchDepth;
    server::HttpServer http(service, options);
    http.start();

    server::HttpRequest probe;
    probe.method = "GET";
    probe.target = "/uarchs";
    probe.path = "/uarchs";
    std::string etag = service.handle(probe).etag;

    // Warm every target (caches fill, X-Cache flips to hit) and
    // learn the steady-state reply size per batch: once warm, the
    // fixed request IDs make response sizes deterministic, so two
    // consecutive fully-parsed batches must agree byte for byte.
    const std::string batch = makeBatch(etag);
    size_t batch_bytes = 0;
    int fd = connectTo(http.port());
    if (fd >= 0) {
        warmBatch(fd, batch);
        size_t second = warmBatch(fd, batch);
        size_t third = warmBatch(fd, batch);
        if (second != 0 && second == third)
            batch_bytes = second;
        ::close(fd);
    }
    if (batch_bytes == 0) {
        std::fprintf(stderr,
                     "warmup failed: unstable or broken stream\n");
        http.stop();
        return LoadResult{};
    }

    LoadResult result =
        runLoad(http.port(), etag, connections, batches, batch_bytes);
    http.stop();
    return result;
}

// ---------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------

int
jsonMode(const std::string &path)
{
    struct Config
    {
        const char *name;
        size_t connections;
        size_t batches;
    };
    // The single connection pins the per-request fast-path cost where
    // concurrency plays no role; 16 keep-alive connections show the
    // reactor holding that rate under concurrency.
    const std::vector<Config> configs = {
        {"http_reactor_c1", 1, 256},
        {"http_reactor_c16", 16, 64},
    };

    std::string out = "{\n  \"benchmark\": \"bench_http_load\",\n";
    out += "  \"batch_depth\": " + std::to_string(kBatchDepth) +
           ",\n  \"runs\": [\n";
    for (size_t i = 0; i < configs.size(); ++i) {
        const Config &config = configs[i];
        // Median of three repetitions per configuration: dozens of
        // client threads time-slicing against the server make single
        // runs noisy, and the median discards a one-off scheduler
        // stall without cherry-picking the best case.
        std::vector<LoadResult> reps;
        for (int rep = 0; rep < 3; ++rep)
            reps.push_back(
                measure(config.connections, config.batches));
        std::sort(reps.begin(), reps.end(),
                  [](const LoadResult &a, const LoadResult &b) {
                      return a.ops_per_s < b.ops_per_s;
                  });
        LoadResult r = reps[reps.size() / 2];
        char buf[240];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"iterations\": %zu, "
                      "\"wall_ms\": %.1f, \"ops_per_s\": %.0f, "
                      "\"p99_us\": %.0f}%s\n",
                      config.name, r.requests, r.wall_ms, r.ops_per_s,
                      r.p99_us, i + 1 < configs.size() ? "," : "");
        out += buf;
        std::printf("%s", buf);
    }
    out += "  ]\n}\n";

    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    file << out;
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace
} // namespace uops::bench

int
main(int argc, char **argv)
{
    if (argc != 3 || std::strcmp(argv[1], "--json") != 0) {
        std::fprintf(stderr, "usage: %s --json PATH\n", argv[0]);
        return 2;
    }
    return uops::bench::jsonMode(argv[2]);
}
