/**
 * @file
 * Torture tests for the epoll reactor transport (src/server/reactor)
 * and the per-generation blob store (src/server/blob_store): wire
 * byte-identity against QueryService::handle(), the /uarchs body and
 * content-addressed ETag, ETag/If-None-Match revalidation across hot
 * swaps, pipelining order with interleaved fast-path and
 * pool-dispatched requests, slow-loris shedding, descriptor
 * exhaustion, /reload under concurrent socket load, graceful drain
 * under load, and transport-level refusals.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "server/blob_store.h"
#include "server/http_server.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::HttpRequest;
using server::HttpResponse;

/** Small two-uarch slice: enough shape for multi-record /instr
 *  bodies (two records per name) without a long characterization
 *  sweep. */
std::shared_ptr<const db::DatabaseCatalog>
sliceCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                return v.mnemonic() == "ADD" || v.mnemonic() == "IMUL";
            };
        return db::runCatalogSweep(
            defaultDb(),
            {uarch::UArch::Nehalem, uarch::UArch::Skylake}, options,
            nullptr);
    }();
    return catalog;
}

/** A generation with observably different content (and ETag). */
std::shared_ptr<const db::DatabaseCatalog>
altCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                return v.mnemonic() == "XOR";
            };
        return db::runCatalogSweep(defaultDb(),
                                   {uarch::UArch::Skylake}, options,
                                   nullptr);
    }();
    return catalog;
}

std::unique_ptr<server::QueryService>
makeService()
{
    return std::make_unique<server::QueryService>(sliceCatalog(),
                                                  defaultDb());
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
    return fd;
}

void
sendRaw(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent,
                           bytes.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
}

/** One Content-Length-framed response off the socket (304s carry no
 *  Content-Length and no body, so the head alone completes them). */
std::string
readOneResponse(int fd, std::string &carry)
{
    std::string response = std::move(carry);
    carry.clear();
    char chunk[4096];
    size_t head_end;
    while (true) {
        size_t pos = response.find("\r\n\r\n");
        if (pos != std::string::npos) {
            head_end = pos + 4;
            break;
        }
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return response;
        response.append(chunk, static_cast<size_t>(n));
    }
    size_t body_bytes = 0;
    size_t cl = response.find("Content-Length: ");
    if (cl != std::string::npos && cl < head_end)
        body_bytes = static_cast<size_t>(
            std::strtoul(response.c_str() + cl + 16, nullptr, 10));
    while (response.size() < head_end + body_bytes) {
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        response.append(chunk, static_cast<size_t>(n));
    }
    carry = response.substr(
        std::min(response.size(), head_end + body_bytes));
    response.resize(std::min(response.size(), head_end + body_bytes));
    return response;
}

/** GET over a fresh connection, Connection: close, EOF framing.
 *  Extra headers go in verbatim ("Name: value\r\n" each). */
std::string
httpGet(uint16_t port, const std::string &target,
        const std::string &extra_headers = "")
{
    int fd = connectTo(port);
    if (fd < 0)
        return "";
    sendRaw(fd, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
                    extra_headers + "Connection: close\r\n\r\n");
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

/** Strip the per-request headers (X-Request-Id, X-Cache) so two wire
 *  responses can be compared for transport identity. */
std::string
canonical(const std::string &wire)
{
    std::string out;
    size_t at = 0;
    while (at < wire.size()) {
        size_t eol = wire.find("\r\n", at);
        if (eol == std::string::npos) {
            out.append(wire, at, std::string::npos);
            break;
        }
        std::string_view line(wire.data() + at, eol - at);
        if (line.rfind("X-Request-Id:", 0) != 0 &&
            line.rfind("X-Cache:", 0) != 0)
            out.append(wire, at, eol + 2 - at);
        if (line.empty()) {
            // Header terminator: the body is opaque payload.
            out.append(wire, eol + 2, std::string::npos);
            break;
        }
        at = eol + 2;
    }
    return out;
}

// ---------------------------------------------------------------------
// Blob store: the /uarchs body and the generation ETag.
// ---------------------------------------------------------------------

TEST(BlobStore, UArchsBodyMatchesRendererAndEtagTracksContent)
{
    auto blobs = server::BlobStore::build(*sliceCatalog());
    EXPECT_EQ(*blobs->uarchsBody(),
              server::renderUArchsBody(*sliceCatalog()));

    // The ETag is a pure content hash: identical content hashes to
    // the same tag, different content to a different one.
    auto again = server::BlobStore::build(*sliceCatalog());
    EXPECT_EQ(blobs->etag(), again->etag());
    auto other = server::BlobStore::build(*altCatalog());
    EXPECT_NE(blobs->etag(), other->etag());
}

// ---------------------------------------------------------------------
// Transport identity: whatever lane the reactor answers a request on,
// the wire bytes must equal handle()'s response serialized (modulo
// per-request correlation headers).
// ---------------------------------------------------------------------

TEST(ReactorConformance, WireIdenticalToHandle)
{
    auto reactor_service = makeService();
    auto reference_service = makeService();
    server::HttpServer reactor_http(*reactor_service, {});
    reactor_http.start();
    // The reference: the same head httpGet() sends, parsed and
    // answered by handle() on a second service, then serialized.
    auto reference = [&](const std::string &target) {
        HttpRequest request = server::parseRequestHead(
            "GET " + target +
            " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n");
        return server::serializeResponse(
            reference_service->handle(request));
    };

    db::Query query;
    query.mnemonic = "ADD";
    query.arch = uarch::UArch::Skylake;
    query.limit = 1;
    auto picked = sliceCatalog()->search(query);
    ASSERT_EQ(picked.size(), 1u);
    const std::string name(picked[0].name());

    const std::vector<std::string> targets = {
        "/uarchs",
        "/instr/" + name,
        "/instr/" + name + "?uarch=SKL",
        "/instr/" + name + "?uarch=NHM",
        "/instr/NO_SUCH_VARIANT",           // unknown-name 404
        "/instr",                           // usage 400
        "/search?uarch=SKL&mnemonic=ADD&limit=5",
        "/search?tp_min=abc",               // parameter 400
        "/healthz",
        "/nope",                            // router 404
    };
    for (const std::string &target : targets) {
        std::string via_reactor =
            canonical(httpGet(reactor_http.port(), target));
        EXPECT_EQ(via_reactor, canonical(reference(target))) << target;
        ASSERT_FALSE(via_reactor.empty()) << target;
    }

    // Repeat a cacheable target: the reactor serves the second hit
    // inline from the cache, and the bytes still match handle()'s
    // cache hit (X-Cache stripped by canonical()).
    const std::string cached = "/instr/" + name + "?uarch=SKL";
    EXPECT_EQ(canonical(httpGet(reactor_http.port(), cached)),
              canonical(reference(cached)));

    reactor_http.stop();
}

// ---------------------------------------------------------------------
// ETag / If-None-Match revalidation.
// ---------------------------------------------------------------------

TEST(ReactorConformance, IfNoneMatchRevalidatesFreeOfBodies)
{
    auto service = makeService();
    server::HttpServer http(*service, {});
    http.start();

    std::string fresh = httpGet(http.port(), "/uarchs");
    ASSERT_NE(fresh.find("HTTP/1.1 200 OK"), std::string::npos);
    size_t tag_at = fresh.find("ETag: ");
    ASSERT_NE(tag_at, std::string::npos) << fresh;
    std::string etag = fresh.substr(
        tag_at + 6, fresh.find("\r\n", tag_at) - tag_at - 6);
    ASSERT_GE(etag.size(), 2u);

    // Matching tag: 304, no body, no Content-Length/Content-Type,
    // ETag retained so the client can keep revalidating.
    std::string not_modified = httpGet(
        http.port(), "/uarchs", "If-None-Match: " + etag + "\r\n");
    EXPECT_NE(not_modified.find("HTTP/1.1 304 Not Modified"),
              std::string::npos)
        << not_modified;
    EXPECT_EQ(not_modified.find("Content-Length:"),
              std::string::npos);
    EXPECT_EQ(not_modified.find("Content-Type:"), std::string::npos);
    EXPECT_NE(not_modified.find("ETag: " + etag), std::string::npos);
    EXPECT_TRUE(not_modified.ends_with("\r\n\r\n")) << not_modified;

    // Wildcard and stale tags.
    EXPECT_NE(httpGet(http.port(), "/uarchs", "If-None-Match: *\r\n")
                  .find("HTTP/1.1 304"),
              std::string::npos);
    EXPECT_NE(httpGet(http.port(), "/uarchs",
                      "If-None-Match: \"deadbeef\"\r\n")
                  .find("HTTP/1.1 200"),
              std::string::npos);

    // /instr revalidates under the same generation tag — including
    // when the 200 would have come from the response cache.
    db::Query query;
    query.mnemonic = "ADD";
    query.limit = 1;
    auto picked = sliceCatalog()->search(query);
    ASSERT_EQ(picked.size(), 1u);
    const std::string instr =
        "/instr/" + std::string(picked[0].name());
    ASSERT_NE(httpGet(http.port(), instr).find("HTTP/1.1 200"),
              std::string::npos);
    EXPECT_NE(httpGet(http.port(), instr,
                      "If-None-Match: " + etag + "\r\n")
                  .find("HTTP/1.1 304"),
              std::string::npos);

    // A hot swap to different content changes the tag: the old tag
    // stops matching (fresh 200 with a new ETag), the new one holds.
    service->swapCatalog(altCatalog());
    std::string swapped = httpGet(http.port(), "/uarchs",
                                  "If-None-Match: " + etag + "\r\n");
    EXPECT_NE(swapped.find("HTTP/1.1 200 OK"), std::string::npos)
        << swapped;
    size_t new_tag_at = swapped.find("ETag: ");
    ASSERT_NE(new_tag_at, std::string::npos);
    std::string new_etag = swapped.substr(
        new_tag_at + 6, swapped.find("\r\n", new_tag_at) - new_tag_at - 6);
    EXPECT_NE(new_etag, etag);
    EXPECT_NE(httpGet(http.port(), "/uarchs",
                      "If-None-Match: " + new_etag + "\r\n")
                  .find("HTTP/1.1 304"),
              std::string::npos);

    http.stop();
}

// ---------------------------------------------------------------------
// Pipelining: responses stay ordered even when fast-path requests are
// interleaved with pool-dispatched ones.
// ---------------------------------------------------------------------

TEST(ReactorTorture, PipelinedMixedRequestsAnswerInOrder)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.max_requests_per_connection = 64;
    server::HttpServer http(*service, options);
    http.start();

    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);

    // One write, 12 pipelined requests alternating /healthz (always
    // dispatched to the pool) and /uarchs (always served inline):
    // the reactor must not let an inline answer overtake an earlier
    // in-flight pool answer.
    std::string batch;
    for (int i = 0; i < 12; ++i) {
        const char *target = i % 2 == 0 ? "/healthz" : "/uarchs";
        batch += std::string("GET ") + target +
                 " HTTP/1.1\r\nHost: x\r\n"
                 "X-Request-Id: pipe-" +
                 std::to_string(i) + "\r\n\r\n";
    }
    sendRaw(fd, batch);

    std::string carry;
    for (int i = 0; i < 12; ++i) {
        std::string response = readOneResponse(fd, carry);
        EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
            << "response " << i;
        EXPECT_NE(response.find("X-Request-Id: pipe-" +
                                std::to_string(i) + "\r\n"),
                  std::string::npos)
            << "response " << i << ":\n"
            << response;
        const char *marker =
            i % 2 == 0 ? "\"status\":\"ok\"" : "\"uarchs\"";
        EXPECT_NE(response.find(marker), std::string::npos)
            << "response " << i;
    }
    ::close(fd);
    http.stop();
}

// ---------------------------------------------------------------------
// Slow loris: half-sent requests are shed on the receive deadline
// without blocking other clients.
// ---------------------------------------------------------------------

TEST(ReactorTorture, SlowLorisIsShedOnDeadline)
{
    auto service = makeService();
    server::HttpServer http(
        *service, {.recv_timeout_seconds = 1,
                   .reactor_threads = 1});  // all loris on one loop
    http.start();

    // Eight connections each dribble half a request head and stall.
    std::vector<int> loris;
    for (int i = 0; i < 8; ++i) {
        int fd = connectTo(http.port());
        ASSERT_GE(fd, 0);
        sendRaw(fd, "GET /healthz HT");
        loris.push_back(fd);
    }

    // A well-behaved client is served immediately despite them.
    std::string health = httpGet(http.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

    // Every loris is cut loose by the deadline sweep, not served.
    auto t0 = std::chrono::steady_clock::now();
    for (int fd : loris) {
        char chunk[64];
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        EXPECT_LE(n, 0);
        ::close(fd);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(http.activeConnections(), 0u);
    EXPECT_TRUE(http.drain(std::chrono::seconds(1)));
}

// ---------------------------------------------------------------------
// Descriptor exhaustion: accept4() failing with EMFILE must not spin
// the level-triggered listener, and accepting resumes once
// descriptors free up.
// ---------------------------------------------------------------------

/** Lowers the soft RLIMIT_NOFILE; restores it on every exit path. */
class NoFileLimit
{
  public:
    NoFileLimit() { ::getrlimit(RLIMIT_NOFILE, &saved_); }
    ~NoFileLimit() { restore(); }

    bool
    lowerTo(rlim_t soft)
    {
        rlimit lowered = saved_;
        lowered.rlim_cur = soft;
        return ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
    }

    void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  private:
    rlimit saved_{};
};

int
highestOpenFd()
{
    int highest = -1;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        highest = std::max(highest,
                           std::atoi(entry.path().filename().c_str()));
    return highest;
}

double
processCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ReactorTorture, DescriptorExhaustionParksTheListener)
{
    auto service = makeService();
    server::HttpServer http(*service, {.reactor_threads = 1});
    http.start();
    obs::Counter &accept_errors = service->registry().counter(
        "uops_reactor_accept_errors_total", "accept4() failures");

    // Client sockets are made while descriptors are plentiful;
    // connect() needs none, so past the lowered limit the handshakes
    // complete into a backlog the server cannot accept from.
    struct Clients
    {
        std::vector<int> fds;
        ~Clients() { closeAll(); }
        void
        closeAll()
        {
            for (int fd : fds)
                ::close(fd);
            fds.clear();
        }
    } clients;
    for (int i = 0; i < 16; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        clients.fds.push_back(fd);
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(http.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

    NoFileLimit limit;
    // Room for two accepted connections, then EMFILE.
    ASSERT_TRUE(limit.lowerTo(static_cast<rlim_t>(highestOpenFd()) + 3));
    for (int fd : clients.fds)
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0)
            << std::strerror(errno);

    // A listener that re-fires on every epoll_wait pins a core; a
    // parked one costs a retry per tick.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    double cpu_before = processCpuSeconds();
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    double cpu = processCpuSeconds() - cpu_before;
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    EXPECT_LT(cpu, 0.25 * wall)
        << "listener spins on EMFILE: " << cpu << "s CPU in " << wall
        << "s";
    EXPECT_GT(accept_errors.value(), 0u);

    // Descriptors free up: the listener re-arms on a later tick and
    // a new client is answered.
    limit.restore();
    clients.closeAll();
    std::string health = httpGet(http.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos)
        << health;
    http.stop();
}

// ---------------------------------------------------------------------
// Hot swap (/reload semantics) under concurrent socket load.
// ---------------------------------------------------------------------

TEST(ReactorTorture, HotSwapUnderLoadServesOnlyWholeGenerations)
{
    // Per-generation baselines rendered in isolation.
    auto baseline_of =
        [](std::shared_ptr<const db::DatabaseCatalog> catalog) {
            server::QueryService isolated(catalog, defaultDb());
            HttpRequest request = server::parseRequestHead(
                "GET /uarchs HTTP/1.1\r\nHost: x");
            return std::string(
                isolated.handle(request).bodyView());
        };
    const std::string gen_a = baseline_of(sliceCatalog());
    const std::string gen_b = baseline_of(altCatalog());
    ASSERT_NE(gen_a, gen_b);

    auto service = makeService();
    server::HttpServer http(*service, {});
    http.start();

    std::atomic<bool> done{false};
    std::atomic<size_t> served{0};
    std::atomic<size_t> foreign{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            while (!done.load(std::memory_order_relaxed)) {
                std::string wire = httpGet(http.port(), "/uarchs");
                size_t body_at = wire.find("\r\n\r\n");
                if (body_at == std::string::npos)
                    continue;
                std::string body = wire.substr(body_at + 4);
                ++served;
                if (body != gen_a && body != gen_b)
                    ++foreign;
            }
        });
    }

    // Swap while they hammer; every observed body must belong wholly
    // to one generation (a request pins one serving state).
    for (int swap = 0; swap < 20; ++swap) {
        service->swapCatalog(swap % 2 == 0 ? altCatalog()
                                           : sliceCatalog());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true);
    for (std::thread &client : clients)
        client.join();

    EXPECT_GT(served.load(), 0u);
    EXPECT_EQ(foreign.load(), 0u);
    http.stop();
}

// ---------------------------------------------------------------------
// Drain under load through the reactor.
// ---------------------------------------------------------------------

TEST(ReactorTorture, DrainUnderLoadSendsEveryResponseWhole)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.num_threads = 2;
    server::HttpServer http(*service, options);
    http.start();

    auto complete_response = [](const std::string &wire) {
        size_t head_end = wire.find("\r\n\r\n");
        if (head_end == std::string::npos)
            return false;
        size_t cl = wire.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end)
            return false;
        size_t body_bytes = static_cast<size_t>(
            std::strtoul(wire.c_str() + cl + 16, nullptr, 10));
        return wire.size() == head_end + 4 + body_bytes;
    };

    std::atomic<size_t> complete{0};
    std::atomic<size_t> truncated{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            // Mix of pool-dispatched and inline-fast targets.
            const std::string target =
                t % 2 == 0 ? "/search?uarch=SKL&limit=5" : "/uarchs";
            while (true) {
                std::string wire = httpGet(http.port(), target);
                if (wire.empty()) {
                    // Connection refused or reset: only acceptable
                    // once draining began.
                    if (http.draining())
                        return;
                    continue;
                }
                if (complete_response(wire))
                    ++complete;
                else
                    ++truncated;
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    bool clean = http.drain(std::chrono::seconds(10));
    for (std::thread &client : clients)
        client.join();

    EXPECT_TRUE(clean);
    EXPECT_GT(complete.load(), 0u);
    EXPECT_EQ(truncated.load(), 0u);
    EXPECT_EQ(http.activeConnections(), 0u);
    EXPECT_FALSE(http.running());
}

// ---------------------------------------------------------------------
// Transport refusals through the reactor.
// ---------------------------------------------------------------------

TEST(ReactorTorture, OversizeAndMalformedRequestsAreRefused)
{
    auto service = makeService();
    server::HttpServer::Options options;
    options.max_request_bytes = 1024;
    server::HttpServer http(*service, options);
    http.start();

    // A request head that never terminates and exceeds the limit.
    int fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\nPadding: " +
                    std::string(4096, 'x'));
    std::string carry;
    std::string oversize = readOneResponse(fd, carry);
    EXPECT_NE(oversize.find("HTTP/1.1 413"), std::string::npos)
        << oversize;
    ::close(fd);

    // Garbage head: 400 with a correlation ID, connection closed.
    fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "NOT-HTTP\r\n\r\n");
    std::string garbage = readOneResponse(fd, carry);
    EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);
    EXPECT_NE(garbage.find("X-Request-Id: "), std::string::npos);
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    // Declared body over the limit, client's ID honored on refusal.
    fd = connectTo(http.port());
    ASSERT_GE(fd, 0);
    sendRaw(fd, "POST /predict HTTP/1.1\r\nHost: x\r\n"
                "X-Request-Id: too-big\r\n"
                "Content-Length: 999999\r\n\r\n");
    std::string big = readOneResponse(fd, carry);
    EXPECT_NE(big.find("HTTP/1.1 413"), std::string::npos) << big;
    EXPECT_NE(big.find("X-Request-Id: too-big\r\n"),
              std::string::npos);
    ::close(fd);

    http.stop();
}

} // namespace
} // namespace uops::test
