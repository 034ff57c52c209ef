/**
 * @file
 * Event-driven serving front end: the epoll reactor behind
 * HttpServer.
 *
 * A few threads own all the sockets through epoll and spend their
 * time exclusively on work that is actually ready; no thread ever
 * camps on a recv() waiting for a keep-alive client's next request.
 *
 * Each reactor thread runs its own epoll loop and owns its accepted
 * connections outright (no cross-thread connection state, no locks
 * on the serving path). The shared listen socket is registered in
 * every loop with EPOLLEXCLUSIVE so the kernel wakes one thread per
 * pending accept. Per readiness event a thread reads, runs the Conn
 * framing machine, and answers *inline* whatever the fast lanes can:
 * response-cache hits, /uarchs and /instr answers, and
 * If-None-Match 304s — QueryService::tryServeRaw() on the bare
 * head, else tryServeFast() on the parsed request. Only requests
 * that need real work (cold /search, /predict simulation, /reload)
 * are handed to the worker pool through QueryService::handle(); the
 * completion is queued back to the owning reactor thread through an
 * eventfd wakeup and flushed in arrival order, so pipelined clients
 * still see ordered responses. All three lanes end in the service's
 * one finish path, so they answer byte-identically.
 *
 * Connections are keyed by a monotonically increasing u64 id (the
 * epoll user datum), never by fd: a completion for a connection that
 * died while its request was computing finds no id and is dropped —
 * an fd-reuse race is structurally impossible. Backpressure: while a
 * connection has a request in flight and its input buffer is full,
 * its EPOLLIN interest is dropped until the completion lands.
 *
 * Descriptor exhaustion: when accept4() fails for want of fds or
 * memory (EMFILE, ENFILE, ENOBUFS, ENOMEM), the level-triggered
 * listener would re-fire at once and spin a core. The thread instead
 * takes the listener out of its epoll set and re-adds it on a later
 * loop tick (the 100 ms epoll_wait timeout supplies the ticks), so
 * established connections keep being served while pending accepts
 * wait in the backlog.
 *
 * Drain protocol (SIGTERM / stop()): accepting stops, keep-alive is
 * no longer granted, idle connections close immediately, busy ones
 * finish and flush their response whole; past the deadline the rest
 * are force-closed. drain() finally waits for stray pool tasks so
 * the reactor can be destroyed without racing its own completions.
 */

#ifndef UOPS_SERVER_REACTOR_H
#define UOPS_SERVER_REACTOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/conn.h"
#include "server/http_server.h"
#include "server/service.h"
#include "support/thread_pool.h"

namespace uops::server {

class Reactor
{
  public:
    /** @p listen_fd must be non-blocking and stays owned by the
     *  caller (closed only after stop() has joined the threads). */
    Reactor(QueryService &service, ThreadPool &pool, int listen_fd,
            const HttpServer::Options &options);
    ~Reactor();

    Reactor(const Reactor &) = delete;
    Reactor &operator=(const Reactor &) = delete;

    void start();

    /** Graceful drain; see file comment. Returns true when every
     *  connection finished within the deadline. Idempotent. */
    bool drain(std::chrono::milliseconds max_wait);

    /** Join the reactor threads (call after drain()). */
    void stop();

    size_t activeConnections() const
    {
        return conn_count_.load(std::memory_order_relaxed);
    }

  private:
    struct Completion
    {
        uint64_t id = 0;
        HttpResponse response;
    };

    /** One reactor thread: epoll set, wakeup eventfd, completion
     *  queue, and the connections it exclusively owns. */
    struct Worker
    {
        size_t index = 0;
        int epoll_fd = -1;
        int event_fd = -1;
        std::thread thread;

        /** Cross-thread completion handoff (pool -> reactor). */
        std::mutex mutex;
        std::vector<Completion> completions;

        /** Owned exclusively by the reactor thread. */
        std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
        uint64_t next_id = 2;  ///< 0 = listen, 1 = eventfd
        bool listen_registered = true;
        /** traceNowUs() at which a listener parked by descriptor
         *  exhaustion is re-armed; 0 when not parked. */
        uint64_t listen_retry_us = 0;
    };

    void run(Worker &worker);
    void acceptReady(Worker &worker);
    void setListening(Worker &worker, bool listening);
    void parkListener(Worker &worker, int err);
    void onReadable(Worker &worker, Conn &conn);
    /** Parse + serve/dispatch buffered requests, then flush. The
     *  connection may be *closed* (and freed) on return. */
    void processInput(Worker &worker, Conn &conn);
    void flush(Worker &worker, Conn &conn);
    void drainCompletions(Worker &worker);
    void sweepDeadlines(Worker &worker);
    void armDeadline(Conn &conn);
    void closeConn(Worker &worker, Conn &conn);
    void updateInterest(Worker &worker, Conn &conn, bool want_read,
                        bool want_write);
    void queueRefusal(Conn &conn, int status,
                      const std::string &message,
                      const HttpRequest *request);
    void complete(Worker &worker, uint64_t id, HttpResponse response);
    void wakeAll();

    QueryService &service_;
    ThreadPool &pool_;
    int listen_fd_;
    HttpServer::Options options_;
    Conn::Limits limits_;

    std::vector<std::unique_ptr<Worker>> workers_;

    std::atomic<bool> draining_{false};
    std::atomic<bool> force_close_{false};
    std::atomic<bool> stop_{false};
    std::atomic<size_t> conn_count_{0};
    /** Pool tasks dispatched and not yet finished; drain() waits for
     *  zero so no task can outlive the reactor it completes into. */
    std::atomic<size_t> inflight_{0};
    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;

    obs::Gauge *connections_ = nullptr;
    obs::Counter *accepts_ = nullptr;
    obs::Counter *accept_errors_ = nullptr;
    /** traceNowUs() of the last accept-error Warn line (rate limit). */
    std::atomic<uint64_t> accept_error_logged_us_{0};
    obs::Counter *fast_served_ = nullptr;
    obs::Counter *dispatched_ = nullptr;
    obs::Histogram *loop_ = nullptr;
};

} // namespace uops::server

#endif // UOPS_SERVER_REACTOR_H
