/**
 * @file
 * Dependency-free HTTP/1.1 socket server for the query service.
 *
 * The server owns the listening socket, the worker pool and one epoll
 * reactor (server/reactor.h): a few reactor threads own every socket,
 * do all framing and keep-alive work, serve cache hits, /uarchs and
 * /instr answers and 304s inline, and hand only requests that need
 * real work to the pool — so hundreds of keep-alive connections cost
 * readiness events, not blocked threads.
 *
 * HTTP/1.1 keep-alive is honored (Connection headers, HTTP/1.0
 * semantics included), so query clients issuing many small requests
 * stop paying per-request TCP setup; a connection is bounded by
 * max_requests_per_connection and by the receive deadline, so a
 * slow-loris client cannot pin a socket forever. Malformed requests
 * are answered and the connection closed — after an error the byte
 * stream can no longer be trusted to be framed.
 *
 * Listens on a configurable address/port; port 0 binds an ephemeral
 * port (query it with port() — the tests and the CI smoke step use
 * this to avoid collisions). stop() is idempotent; in-flight
 * connections finish before it returns.
 */

#ifndef UOPS_SERVER_HTTP_SERVER_H
#define UOPS_SERVER_HTTP_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "server/service.h"
#include "support/thread_pool.h"

namespace uops::server {

class Reactor;

class HttpServer
{
  public:
    struct Options
    {
        std::string bind_address = "127.0.0.1";
        uint16_t port = 0;          ///< 0: ephemeral
        size_t num_threads = 0;     ///< pool size; 0: hardware

        /** Deadline for a request still arriving (and for a stalled
         *  send of its response); 0 disables. */
        int recv_timeout_seconds = 5;

        /** Reject request heads/bodies larger than this. */
        size_t max_request_bytes = 1 << 20;

        /** Requests served per keep-alive connection before the
         *  server closes it (fairness bound across clients). */
        size_t max_requests_per_connection = 100;

        /** Idle wait for the *next* request on a persistent
         *  connection. Deliberately shorter than the in-request
         *  deadline: idle keep-alive clients are shed quickly. */
        int keep_alive_idle_seconds = 1;

        /** How long stop()/drain() waits for in-flight connections
         *  to finish before forcibly closing them. */
        int drain_deadline_ms = 5000;

        /** Reactor threads; 0 picks min(4, hardware threads). */
        size_t reactor_threads = 0;
    };

    /** `{}` options: loopback, ephemeral port. */
    HttpServer(QueryService &service, Options options);

    /** Stops and joins. */
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind, listen and start the reactor threads.
     *
     * @throws FatalError when the address cannot be bound.
     */
    void start();

    /** Graceful stop: drain(options.drain_deadline_ms), idempotent. */
    void stop();

    /**
     * Graceful drain. Stops accepting (new connections are refused,
     * keep-alive is no longer offered), waits up to @p max_wait for
     * in-flight connections to finish — every response already being
     * computed is sent whole — then forcibly closes whatever remains.
     *
     * @return true when every connection finished within the
     *         deadline (no socket had to be closed mid-request).
     */
    bool drain(std::chrono::milliseconds max_wait);

    bool running() const { return running_.load(); }

    /** True once stop()/drain() began: no new connections, no
     *  keep-alive. */
    bool draining() const { return draining_.load(); }

    /** Connections currently open (accepted, not yet closed). */
    size_t activeConnections() const;

    /** Actual bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /** Resolved worker-pool size (Options::num_threads = 0 becomes
     *  the hardware thread count). */
    size_t numWorkers() const { return pool_.numWorkers(); }

  private:
    QueryService &service_;
    Options options_;
    ThreadPool pool_;
    std::unique_ptr<Reactor> reactor_;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    int listen_fd_ = -1;
    uint16_t port_ = 0;
};

} // namespace uops::server

#endif // UOPS_SERVER_HTTP_SERVER_H
