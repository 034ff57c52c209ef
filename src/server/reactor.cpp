#include "reactor.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/status.h"

namespace uops::server {

namespace {

/** epoll user data for the two non-connection fds; connection ids
 *  start at 2 so they can never collide. */
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

/** How long a listener parked by descriptor exhaustion sits out, and
 *  the minimum gap between two accept_failed log lines. */
constexpr uint64_t kListenRetryUs = 100'000;
constexpr uint64_t kAcceptErrorLogUs = 1'000'000;

} // namespace

Reactor::Reactor(QueryService &service, ThreadPool &pool,
                 int listen_fd, const HttpServer::Options &options)
    : service_(service), pool_(pool), listen_fd_(listen_fd),
      options_(options)
{
    limits_.max_request_bytes = options_.max_request_bytes;
    limits_.max_requests = options_.max_requests_per_connection;

    obs::Registry &registry = service_.registry();
    connections_ = &registry.gauge(
        "uops_reactor_connections",
        "Connections currently owned by reactor threads");
    accepts_ = &registry.counter(
        "uops_reactor_accepts_total",
        "Connections accepted by the reactor");
    accept_errors_ = &registry.counter(
        "uops_reactor_accept_errors_total",
        "accept4() failures from descriptor or memory exhaustion "
        "(the listener is parked, then retried)");
    fast_served_ = &registry.counter(
        "uops_reactor_fast_served_total",
        "Requests served inline on a reactor thread (cache, /uarchs, "
        "/instr or 304 fast path)");
    dispatched_ = &registry.counter(
        "uops_reactor_dispatched_total",
        "Requests handed to the worker pool");
    loop_ = &registry.histogram(
        "uops_reactor_loop_duration_us",
        "Active (non-waiting) readiness-loop iteration time in "
        "microseconds");

    size_t threads = options_.reactor_threads;
    if (threads == 0) {
        size_t hardware = std::thread::hardware_concurrency();
        threads = std::min<size_t>(4, hardware == 0 ? 1 : hardware);
    }
    for (size_t i = 0; i < threads; ++i) {
        auto worker = std::make_unique<Worker>();
        worker->index = i;
        worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        fatalIf(worker->epoll_fd < 0, "reactor: epoll_create1(): ",
                std::strerror(errno));
        worker->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        fatalIf(worker->event_fd < 0, "reactor: eventfd(): ",
                std::strerror(errno));

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kWakeId;
        fatalIf(::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD,
                            worker->event_fd, &ev) != 0,
                "reactor: register eventfd: ", std::strerror(errno));

        // Level-triggered + EPOLLEXCLUSIVE: the kernel wakes one
        // reactor thread per pending accept instead of thundering
        // the whole herd.
        ev.events = EPOLLIN | EPOLLEXCLUSIVE;
        ev.data.u64 = kListenId;
        fatalIf(::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD,
                            listen_fd_, &ev) != 0,
                "reactor: register listener: ", std::strerror(errno));
        workers_.push_back(std::move(worker));
    }
}

Reactor::~Reactor()
{
    stop();
    for (auto &worker : workers_) {
        if (worker->epoll_fd >= 0)
            ::close(worker->epoll_fd);
        if (worker->event_fd >= 0)
            ::close(worker->event_fd);
    }
}

void
Reactor::start()
{
    for (auto &worker : workers_)
        worker->thread =
            std::thread([this, w = worker.get()] { run(*w); });
}

void
Reactor::wakeAll()
{
    for (auto &worker : workers_) {
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(worker->event_fd, &one, sizeof one);
    }
}

bool
Reactor::drain(std::chrono::milliseconds max_wait)
{
    draining_.store(true);
    wakeAll();
    std::unique_lock<std::mutex> lock(drain_mutex_);
    bool clean = drain_cv_.wait_for(lock, max_wait, [this] {
        return conn_count_.load() == 0;
    });
    if (!clean) {
        // Deadline passed: the remaining connections (slow senders,
        // stalled receivers) are force-closed. Clients see a reset,
        // never a silently truncated success.
        service_.logger()
            .event(obs::LogLevel::Warn, "http", "drain_forced")
            .num("connections",
                 static_cast<uint64_t>(conn_count_.load()))
            .num("deadline_ms",
                 static_cast<uint64_t>(max_wait.count()));
        force_close_.store(true);
        wakeAll();
        drain_cv_.wait(lock,
                       [this] { return conn_count_.load() == 0; });
    }
    // Stray pool tasks may still be computing for connections that
    // no longer exist; wait them out so no task can complete into a
    // destroyed reactor.
    drain_cv_.wait(lock, [this] { return inflight_.load() == 0; });
    return clean;
}

void
Reactor::stop()
{
    stop_.store(true, std::memory_order_release);
    wakeAll();
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
    // Pool tasks dispatched before the loops exited may still be
    // computing; complete() writes their worker's eventfd, so wait
    // them out before the destructor closes any fd under a writer.
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return inflight_.load() == 0; });
}

void
Reactor::run(Worker &worker)
{
    epoll_event events[64];
    while (!stop_.load(std::memory_order_acquire)) {
        int n = ::epoll_wait(worker.epoll_fd, events, 64, 100);
        uint64_t t0_us = obs::traceNowUs();

        if (draining_.load(std::memory_order_relaxed))
            setListening(worker, false);
        else if (worker.listen_retry_us != 0 &&
                 t0_us >= worker.listen_retry_us)
            setListening(worker, true);

        for (int i = 0; i < n; ++i) {
            uint64_t id = events[i].data.u64;
            uint32_t mask = events[i].events;
            if (id == kWakeId) {
                drainCompletions(worker);
                continue;
            }
            if (id == kListenId) {
                acceptReady(worker);
                continue;
            }
            auto it = worker.conns.find(id);
            if (it == worker.conns.end())
                continue;
            if ((mask & (EPOLLERR | EPOLLHUP)) != 0 &&
                (mask & EPOLLIN) == 0) {
                closeConn(worker, *it->second);
                continue;
            }
            if (mask & EPOLLIN) {
                onReadable(worker, *it->second);
                // onReadable/processInput may have closed it.
                it = worker.conns.find(id);
                if (it == worker.conns.end())
                    continue;
            }
            if (mask & EPOLLOUT)
                flush(worker, *it->second);
        }

        sweepDeadlines(worker);
        if (n > 0)
            loop_->observe(obs::traceNowUs() - t0_us);
    }
}

void
Reactor::setListening(Worker &worker, bool listening)
{
    worker.listen_retry_us = 0;
    if (worker.listen_registered == listening)
        return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kListenId;
    if (::epoll_ctl(worker.epoll_fd,
                    listening ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                    listen_fd_, &ev) != 0 &&
        listening) {
        // Re-arming can itself fail under memory pressure: stay
        // parked and try again next tick.
        worker.listen_retry_us = obs::traceNowUs() + kListenRetryUs;
        return;
    }
    worker.listen_registered = listening;
}

void
Reactor::acceptReady(Worker &worker)
{
    for (;;) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            int err = errno;
            if (err == EINTR)
                continue;
            if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
                err == ENOMEM)
                parkListener(worker, err);
            break;  // EAGAIN: another thread took it, or none left
        }
        if (draining_.load(std::memory_order_relaxed)) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

        auto conn = std::make_unique<Conn>(limits_);
        conn->fd = fd;
        conn->id = worker.next_id++;
        armDeadline(*conn);

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) !=
            0) {
            ::close(fd);
            continue;
        }
        worker.conns.emplace(conn->id, std::move(conn));
        conn_count_.fetch_add(1);
        connections_->add(1);
        accepts_->inc();
    }
}

void
Reactor::parkListener(Worker &worker, int err)
{
    // The pending connection stays in the backlog, so the
    // level-triggered listener would re-fire at once: park it for a
    // tick instead of spinning until a descriptor frees up.
    accept_errors_->inc();
    setListening(worker, false);
    uint64_t now_us = obs::traceNowUs();
    worker.listen_retry_us = now_us + kListenRetryUs;

    uint64_t last_us =
        accept_error_logged_us_.load(std::memory_order_relaxed);
    if ((last_us == 0 || now_us - last_us >= kAcceptErrorLogUs) &&
        accept_error_logged_us_.compare_exchange_strong(last_us,
                                                        now_us))
        service_.logger()
            .event(obs::LogLevel::Warn, "http", "accept_failed")
            .str("error", std::strerror(err))
            .num("retry_ms", kListenRetryUs / 1000)
            .num("connections",
                 static_cast<uint64_t>(conn_count_.load()));
}

void
Reactor::armDeadline(Conn &conn)
{
    // A request in flight on the pool has no socket deadline — the
    // connection is waiting on us, not the client.
    if (conn.busy) {
        conn.has_deadline = false;
        return;
    }
    int seconds;
    if (conn.hasOutput() || conn.partialRequest() ||
        conn.served() == 0)
        seconds = options_.recv_timeout_seconds;
    else
        seconds = options_.keep_alive_idle_seconds;
    if (seconds <= 0) {
        conn.has_deadline = false;
        return;
    }
    conn.deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(seconds);
    conn.has_deadline = true;
}

void
Reactor::onReadable(Worker &worker, Conn &conn)
{
    char chunk[16384];
    for (;;) {
        if (conn.busy &&
            conn.inputSize() >= options_.max_request_bytes) {
            // Backpressure: a full buffer behind an in-flight
            // request stops reading until the completion lands.
            updateInterest(worker, conn, false, conn.want_write);
            break;
        }
        ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            conn.appendInput(chunk, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof chunk)
                break;  // likely drained; level-trigger re-fires
            continue;
        }
        if (n == 0) {
            closeConn(worker, conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(worker, conn);
        return;
    }
    processInput(worker, conn);
}

void
Reactor::processInput(Worker &worker, Conn &conn)
{
    // Serve every complete buffered request in order: fast-path hits
    // complete inline (pipelined batches never leave this thread);
    // the first request that needs real work pauses parsing until
    // its pool completion lands.
    while (!conn.busy && !conn.close_after_flush) {
        // Zero-parse lane first: a plain GET the service answers
        // without real work (cache, /uarchs, /instr, 304) never
        // materializes an HttpRequest at all. Anything the scanner or
        // the service is unsure about falls through to the full
        // parser below.
        if (conn.tryRaw(draining_.load(std::memory_order_relaxed),
                        [this](const FastGetView &view,
                               HttpResponse &response) {
                            return service_.tryServeRaw(view,
                                                        response);
                        }) == Conn::Raw::Served) {
            fast_served_->inc();
            continue;
        }
        HttpRequest request;
        Conn::ParseResult parsed = conn.next(request);
        if (parsed.kind == Conn::Parse::NeedMore)
            break;
        if (parsed.kind == Conn::Parse::Refuse) {
            queueRefusal(conn, parsed.refuse_status,
                         parsed.refuse_message,
                         parsed.have_head ? &request : nullptr);
            break;
        }

        bool keep_alive = conn.keepAlive(
            request, draining_.load(std::memory_order_relaxed));
        HttpResponse response;
        if (service_.tryServeFast(request, response)) {
            fast_served_->inc();
            conn.queueResponse(response, keep_alive);
            continue;  // !keep_alive set close_after_flush: loop ends
        }

        conn.busy = true;
        conn.pending_keep_alive = keep_alive;
        dispatched_->inc();
        inflight_.fetch_add(1);
        // The task captures the connection *id*, never the Conn or
        // fd: if the connection dies while this computes, the
        // completion finds no id and is dropped — an fd reused for a
        // new client can never receive a stale response.
        auto boxed = std::make_shared<HttpRequest>(std::move(request));
        pool_.submit([this, w = &worker, id = conn.id,
                      boxed](size_t) {
            HttpResponse out;
            try {
                out = service_.handle(*boxed);
            } catch (const std::exception &e) {
                out = errorResponse(500, e.what());
            } catch (...) {
                out = errorResponse(500, "internal error");
            }
            complete(*w, id, std::move(out));
            if (inflight_.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(drain_mutex_);
                drain_cv_.notify_all();
            }
        });
        break;
    }
    flush(worker, conn);
}

void
Reactor::flush(Worker &worker, Conn &conn)
{
    while (conn.hasOutput()) {
        // A blob response takes two iovecs (head, shared body), so 64
        // carry a 16-deep pipelined batch of them in one sendmsg;
        // IOV_MAX is 1024.
        struct iovec iov[64];
        size_t n = conn.gatherOutput(iov, std::size(iov));
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = n;
        ssize_t sent = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
        if (sent > 0) {
            conn.consumeOutput(static_cast<size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            updateInterest(worker, conn, !conn.reads_paused, true);
            armDeadline(conn);
            return;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        closeConn(worker, conn);
        return;
    }
    if (conn.close_after_flush) {
        closeConn(worker, conn);
        return;
    }
    if (draining_.load(std::memory_order_relaxed) && !conn.busy) {
        // Drain: response flushed whole, no keep-alive — done.
        closeConn(worker, conn);
        return;
    }
    bool want_read = !(conn.busy &&
                       conn.inputSize() >= options_.max_request_bytes);
    updateInterest(worker, conn, want_read, false);
    armDeadline(conn);
}

void
Reactor::drainCompletions(Worker &worker)
{
    uint64_t buf;
    while (::read(worker.event_fd, &buf, sizeof buf) > 0) {
    }
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(worker.mutex);
        batch.swap(worker.completions);
    }
    for (Completion &completion : batch) {
        auto it = worker.conns.find(completion.id);
        if (it == worker.conns.end())
            continue;  // connection died while the request computed
        Conn &conn = *it->second;
        conn.busy = false;
        conn.queueResponse(completion.response,
                           conn.pending_keep_alive);
        if (conn.reads_paused)
            updateInterest(worker, conn, true, conn.want_write);
        // A pipelined successor may already be buffered.
        processInput(worker, conn);
    }
}

void
Reactor::sweepDeadlines(Worker &worker)
{
    bool force = force_close_.load(std::memory_order_relaxed);
    bool draining = draining_.load(std::memory_order_relaxed);
    auto now = std::chrono::steady_clock::now();
    std::vector<uint64_t> doomed;
    for (auto &[id, conn] : worker.conns) {
        if (force) {
            doomed.push_back(id);
            continue;
        }
        if (draining && !conn->busy && !conn->hasOutput() &&
            !conn->partialRequest()) {
            // Idle between requests: close now. A half-received
            // request keeps its socket until its own deadline or the
            // drain force deadline.
            doomed.push_back(id);
            continue;
        }
        if (conn->has_deadline && !conn->busy &&
            now >= conn->deadline)
            doomed.push_back(id);
    }
    for (uint64_t id : doomed) {
        auto it = worker.conns.find(id);
        if (it != worker.conns.end())
            closeConn(worker, *it->second);
    }
}

void
Reactor::closeConn(Worker &worker, Conn &conn)
{
    uint64_t id = conn.id;
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    worker.conns.erase(id);  // frees the Conn
    connections_->add(-1);
    if (conn_count_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        drain_cv_.notify_all();
    }
}

void
Reactor::updateInterest(Worker &worker, Conn &conn, bool want_read,
                        bool want_write)
{
    bool paused = !want_read;
    if (conn.reads_paused == paused && conn.want_write == want_write)
        return;
    conn.reads_paused = paused;
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) |
                (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
Reactor::queueRefusal(Conn &conn, int status,
                      const std::string &message,
                      const HttpRequest *request)
{
    // Transport-level refusals never reach the service's finish
    // path, so correlation and the access-log line are this layer's
    // job.
    HttpResponse response = errorResponse(status, message);
    const std::string *client_id =
        request != nullptr ? request->header("X-Request-Id") : nullptr;
    response.request_id = resolveRequestId(
        client_id != nullptr ? std::string_view(*client_id) : "");
    obs::Logger &logger = service_.logger();
    if (logger.enabled(obs::LogLevel::Info))
        logger.event(obs::LogLevel::Info, "http", "access")
            .str("id", response.request_id)
            .str("endpoint", "transport")
            .num("status", static_cast<int64_t>(status))
            .str("error", message);
    conn.queueResponse(response, false);
}

void
Reactor::complete(Worker &worker, uint64_t id, HttpResponse response)
{
    {
        std::lock_guard<std::mutex> lock(worker.mutex);
        worker.completions.push_back({id, std::move(response)});
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(worker.event_fd, &one, sizeof one);
}

} // namespace uops::server
