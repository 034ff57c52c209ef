#include "http_server.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/reactor.h"
#include "support/status.h"

namespace uops::server {

namespace {

/** Pending connections the kernel queues before refusing more. */
constexpr int kListenBacklog = 64;

} // namespace

HttpServer::HttpServer(QueryService &service, Options options)
    : service_(service), options_(std::move(options)),
      pool_(options_.num_threads)
{
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    panicIf(running_.load(), "HttpServer::start: already running");

    // Non-blocking: the reactor accepts through epoll, and with
    // EPOLLEXCLUSIVE one thread is woken per pending accept, but a
    // level-triggered racing accept can still come up empty.
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    fatalIf(listen_fd_ < 0, "http server: socket(): ",
            std::strerror(errno));

    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                 sizeof reuse);

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    fatalIf(::inet_pton(AF_INET, options_.bind_address.c_str(),
                        &addr.sin_addr) != 1,
            "http server: bad bind address '", options_.bind_address,
            "'");

    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0) {
        int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        fatal("http server: cannot bind ", options_.bind_address, ":",
              options_.port, ": ", std::strerror(err));
    }
    if (::listen(listen_fd_, kListenBacklog) < 0) {
        int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        fatal("http server: listen(): ", std::strerror(err));
    }

    sockaddr_in bound;
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                  &len);
    port_ = ntohs(bound.sin_port);

    reactor_ =
        std::make_unique<Reactor>(service_, pool_, listen_fd_, options_);
    reactor_->start();
    running_.store(true);
}

void
HttpServer::stop()
{
    drain(std::chrono::milliseconds(options_.drain_deadline_ms));
}

bool
HttpServer::drain(std::chrono::milliseconds max_wait)
{
    draining_.store(true);
    if (!running_.exchange(false))
        return true;  // never started, or a previous call drained it
    bool clean = reactor_->drain(max_wait);
    // Join the reactor threads before closing the listener: nothing
    // may hold the fd in an epoll set (or race it as a plain int) once
    // it can be reused.
    reactor_->stop();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return clean;
}

size_t
HttpServer::activeConnections() const
{
    return reactor_ != nullptr ? reactor_->activeConnections() : 0;
}

} // namespace uops::server
