#include "query/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/error.h"

namespace mapit::query {

namespace {

/// One epoll_wait batch. Level-triggered events re-report, so a small batch
/// only costs extra wakeups, never lost readiness.
constexpr int kMaxEvents = 128;

/// One recv per readiness event, so each feed is one event's read batch.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Compact the write buffer once this many sent bytes sit in front of the
/// unsent tail — keeps memory bounded without erasing on every flush.
constexpr std::size_t kCompactThreshold = 256 * 1024;

constexpr std::uint64_t kWakeToken = 0;  ///< epoll token of the wake pipe

/// Out of fds (EMFILE/ENFILE), kernel memory pressure (ENOBUFS/ENOMEM), or
/// a connection that died in the backlog (ECONNABORTED, EPROTO): "right
/// now", not "never again". A loop that gave up on these would turn one
/// load spike into an outage.
bool transient_accept_error(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM ||
         err == ECONNABORTED || err == EPROTO || err == EAGAIN ||
         err == EWOULDBLOCK;
}

int clamp_ms(std::chrono::steady_clock::duration d) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  if (ms <= 0) return 0;
  if (ms > 60'000) return 60'000;
  // Round up: waking one tick early busy-spins, one tick late is harmless.
  return static_cast<int>(ms) + 1;
}

}  // namespace

EventLoop::EventLoop(fault::Io& io) : io_(&io) {
  epoll_fd_ = io_->epoll_create1(EPOLL_CLOEXEC);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeToken;
  if (epoll_fd_ < 0 || ::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0 ||
      io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &event) != 0) {
    const int err = errno;
    for (const int fd : {epoll_fd_, wake_fds_[0], wake_fds_[1]}) {
      if (fd >= 0) ::close(fd);
    }
    throw Error(std::string("serve: event loop setup: ") +
                std::strerror(err));
  }
}

EventLoop::~EventLoop() {
  stop();
  // Closed here, never in stop(), so a post() racing stop() still finds a
  // valid pipe.
  for (const int fd : {epoll_fd_, wake_fds_[0], wake_fds_[1]}) ::close(fd);
  if (failure_) std::rethrow_exception(failure_);  // never vanish silently
}

std::uint16_t EventLoop::listen(const ServerOptions& options,
                                SessionFactory factory) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  const auto fail = [fd](const std::string& what) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw Error("serve: " + what + ": " + std::strerror(err));
  };
  if (fd < 0) fail("socket");
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
      (options.reuse_port &&
       ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0)) {
    fail("setsockopt(SO_REUSEADDR/SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  socklen_t addr_len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("cannot bind 127.0.0.1:" + std::to_string(options.port));
  }
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0 ||
      ::listen(fd, options.backlog > 0 ? options.backlog : SOMAXCONN) != 0) {
    fail("listen");
  }
  auto listener = std::make_unique<Listener>();
  listener->fd = fd;
  listener->options = options;
  listener->factory = std::move(factory);
  drain_timeout_ = std::max(drain_timeout_, options.drain_timeout);
  const std::uint64_t id = next_id_++;
  register_listener(id, *listeners_.emplace(id, std::move(listener))
                             .first->second);
  return ntohs(addr.sin_port);
}

void EventLoop::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (task && !stopping_.load()) tasks_.push_back(std::move(task));
  }
  const char byte = 1;
  (void)!::write(wake_fds_[1], &byte, 1);
}

void EventLoop::rethrow_failure() {
  std::exception_ptr failure;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    failure.swap(failure_);
  }
  if (failure) std::rethrow_exception(failure);
}

void EventLoop::start() {
  thread_ = std::thread([this] {
    try {
      run();
    } catch (...) {
      // Not handled: kept for the owner's rethrow_failure().
      const std::lock_guard<std::mutex> lock(mutex_);
      failure_ = std::current_exception();
    }
  });
}

void EventLoop::run() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    running_ = true;
  }
  // Reports loop exit on every path, exceptions included, so stop() can
  // wait out a run() caller it cannot join.
  struct ExitScope {
    EventLoop& loop;
    ~ExitScope() {
      {
        const std::lock_guard<std::mutex> lock(loop.mutex_);
        loop.running_ = false;
        loop.stopping_.store(true);  // later posts are dropped
        loop.tasks_.clear();
      }
      loop.exited_cv_.notify_all();
    }
  } exit_scope{*this};
  loop_body();
  release_all();
}

void EventLoop::register_listener(std::uint64_t id, Listener& listener) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = id;
  listener.registered =
      io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener.fd, &event) == 0;
  // On failure, retry shortly (see the re-arm in loop_body).
  listener.rearm_at =
      std::chrono::steady_clock::now() + std::chrono::milliseconds{10};
}

void EventLoop::close_listener(Listener& listener) {
  if (listener.fd < 0) return;
  if (listener.registered) {
    io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener.fd, nullptr);
    listener.registered = false;
  }
  ::close(listener.fd);
  listener.fd = -1;
}

void EventLoop::rearm(Connection& connection) {
  std::uint32_t want = 0;
  if (!connection.paused && !connection.want_close && !draining_ &&
      connection.session->may_read()) {
    want |= EPOLLIN;
  }
  if (connection.pending_out() > 0) want |= EPOLLOUT;
  if (want == connection.armed) return;
  epoll_event event{};
  event.events = want;
  event.data.u64 = connection.id;
  // A mask of 0 still watches EPOLLHUP/EPOLLERR, which is exactly what a
  // paused connection needs: no reads, but a vanished peer is noticed.
  if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event) != 0) {
    // Only fails when the kernel is in real trouble (ENOMEM); drop the
    // connection rather than serve it with a stale mask.
    close_connection(connection);
    return;
  }
  connection.armed = want;
}

void EventLoop::close_connection(Connection& connection) {
  total_pending_ -= connection.pending_out();
  --connection.listener->live;
  io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection.fd, nullptr);
  ::close(connection.fd);
  connections_.erase(connection.id);  // destroys `connection`
  active_.store(connections_.size());
}

bool EventLoop::flush(Connection& connection) {
  const std::size_t before = connection.pending_out();
  bool alive = true;
  while (connection.out_off < connection.out.size()) {
    const ssize_t n = io_->send(connection.fd,
                                connection.out.data() + connection.out_off,
                                connection.out.size() - connection.out_off,
                                MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {  // peer vanished (EPIPE/ECONNRESET/...)
      alive = false;
      break;
    }
    connection.out_off += static_cast<std::size_t>(n);
  }
  total_pending_ -= before - connection.pending_out();
  if (connection.out_off >= connection.out.size()) {
    connection.out.clear();
    connection.out_off = 0;
  } else if (connection.out_off > kCompactThreshold) {
    connection.out.erase(0, connection.out_off);
    connection.out_off = 0;
  }
  // Backpressure release: the peer drained below half the high-water mark.
  if (connection.pending_out() <
      connection.listener->options.max_write_buffer / 2) {
    connection.paused = false;
  }
  return alive;
}

void EventLoop::settle(Connection& connection, std::size_t pending_before,
                       bool keep) {
  if (!keep) connection.want_close = true;
  total_pending_ += connection.pending_out() - pending_before;
  connection.deadline = connection.session->deadline();
  if (!flush(connection) ||
      (connection.want_close && connection.pending_out() == 0)) {
    close_connection(connection);
    return;
  }
  // Backpressure: the peer is not draining what it is owed; stop reading
  // (and so replying) until it does. The buffer is bounded by high-water
  // plus one read chunk's worth of replies.
  if (connection.pending_out() >
      connection.listener->options.max_write_buffer) {
    connection.paused = true;
  }
  rearm(connection);
}

void EventLoop::update(
    std::uint64_t id,
    const std::function<bool(Session&, std::string&)>& step) {
  const auto it = connections_.find(id);
  // A closing connection's session has finished: nothing more to say.
  if (it == connections_.end() || it->second->want_close) return;
  Connection& connection = *it->second;
  const std::size_t before = connection.pending_out();
  settle(connection, before, step(*connection.session, connection.out));
}

void EventLoop::handle_readable(Connection& connection, SteadyTime now) {
  char buffer[kReadChunk];
  ssize_t n = 0;
  do {
    n = io_->recv(connection.fd, buffer, sizeof(buffer), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_connection(connection);  // what it is owed is undeliverable
    return;
  }
  // n == 0 is the peer's half-close: an empty feed, then flush and close.
  const std::size_t before = connection.pending_out();
  const bool keep = connection.session->feed(
      std::string_view(buffer, static_cast<std::size_t>(n)), now,
      connection.out);
  settle(connection, before, keep && n > 0);
}

void EventLoop::accept_ready(Listener& listener, SteadyTime now) {
  while (true) {
    const int fd = io_->accept4(listener.fd, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        listener.backoff = std::chrono::milliseconds{0};
      } else if (transient_accept_error(err)) {
        // Backoff without sleeping: deregister the listener and re-add it
        // at the deadline — live connections keep being served, and
        // level-triggered epoll re-reports the backlog on re-add.
        accept_retries_.fetch_add(1);
        listener.backoff =
            listener.backoff.count() == 0
                ? std::chrono::milliseconds{1}
                : std::min(listener.backoff * 2,
                           listener.options.max_accept_backoff);
        listener.rearm_at = now + listener.backoff;
        if (listener.registered) {
          io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener.fd, nullptr);
          listener.registered = false;
        }
      } else {
        // Unrecoverable (EBADF, EINVAL): this listener is dead, and the
        // loop ends once none is left.
        close_listener(listener);
        stopping_.store(std::none_of(
            listeners_.begin(), listeners_.end(),
            [](const auto& entry) { return entry.second->fd >= 0; }));
      }
      return;
    }
    listener.backoff = std::chrono::milliseconds{0};
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (listener.live >= listener.options.max_connections) {
      refused_.fetch_add(1);
      // Best-effort: one refusal line, then close.
      (void)io_->send(fd, detail::kCapacityRefusal,
                      sizeof(detail::kCapacityRefusal) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_id_++;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = id;
    if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->id = id;
    connection->fd = fd;
    connection->listener = &listener;
    connection->armed = EPOLLIN;
    connection->session = listener.factory(id, now);
    ++listener.live;
    Connection& added =
        *connections_.emplace(id, std::move(connection)).first->second;
    active_.store(connections_.size());
    settle(added, 0, true);  // picks up the session's first deadline
  }
}

void EventLoop::begin_drain(SteadyTime now) {
  draining_ = true;
  drain_deadline_ = now + drain_timeout_;
  for (auto& [id, listener] : listeners_) close_listener(*listener);
  // Stop reading everywhere; flush what each connection is owed. One that
  // owes nothing closes now, the rest get until the drain deadline — a
  // stalled reader cannot block shutdown.
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = *(it++)->second;
    if (!flush(connection) || connection.pending_out() == 0) {
      close_connection(connection);
    } else {
      rearm(connection);
    }
  }
}

int EventLoop::wait_timeout_ms(SteadyTime now) const {
  SteadyTime nearest = draining_ ? drain_deadline_ : SteadyTime::max();
  if (!draining_) {
    for (const auto& [id, listener] : listeners_) {
      if (!listener->registered && listener->fd >= 0) {
        nearest = std::min(nearest, listener->rearm_at);
      }
    }
    // O(connections) per wakeup; fine at the 256-connection default.
    for (const auto& [id, connection] : connections_) {
      nearest = std::min(nearest, connection->deadline);
    }
  }
  return nearest == SteadyTime::max() ? -1 : clamp_ms(nearest - now);
}

void EventLoop::loop_body() {
  std::vector<epoll_event> events(kMaxEvents);
  while (true) {
    std::vector<std::function<void()>> tasks;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tasks.swap(tasks_);
    }
    for (const auto& task : tasks) task();
    auto now = std::chrono::steady_clock::now();
    if (stopping_.load() && !draining_) begin_drain(now);
    if (draining_ && (connections_.empty() || now >= drain_deadline_)) break;
    if (!draining_) {  // re-arm listeners whose accept backoff ran out
      for (auto& [id, listener] : listeners_) {
        if (!listener->registered && listener->fd >= 0 &&
            now >= listener->rearm_at) {
          register_listener(id, *listener);
        }
      }
    }

    const int ready = io_->epoll_wait(epoll_fd_, events.data(),
                                      static_cast<int>(events.size()),
                                      wait_timeout_ms(now));
    now = std::chrono::steady_clock::now();
    if (ready < 0) {
      // EBADF/EINVAL/EFAULT mean the loop's own state is broken; serving
      // blind would spin. Shut down.
      if (errno != EINTR) stopping_.store(true);
      continue;
    }
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t token = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (token == kWakeToken) {
        char drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      const auto it = connections_.find(token);
      if (it == connections_.end()) {  // a listener, or closed this batch
        const auto listener = listeners_.find(token);
        if (listener != listeners_.end() && !draining_ &&
            listener->second->fd >= 0) {
          accept_ready(*listener->second, now);
        }
        continue;
      }
      Connection& connection = *it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0 &&
          (mask & (EPOLLIN | EPOLLOUT)) == 0) {
        close_connection(connection);  // nothing readable or writable left
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        if (!flush(connection) || (connection.pending_out() == 0 &&
                                   (connection.want_close || draining_))) {
          close_connection(connection);
          continue;
        }
      }
      if ((mask & EPOLLIN) != 0 && !draining_ && !connection.want_close) {
        handle_readable(connection, now);  // may close; touch nothing after
        continue;
      }
      rearm(connection);
    }
    if (draining_) continue;
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& connection = *(it++)->second;  // settling may erase it
      if (connection.deadline > now) continue;
      if (connection.want_close) {
        close_connection(connection);
        continue;
      }
      const std::size_t before = connection.pending_out();
      settle(connection, before,
             connection.session->on_deadline(now, connection.out));
    }
  }
}

void EventLoop::release_all() {
  while (!connections_.empty()) close_connection(*connections_.begin()->second);
  for (auto& [id, listener] : listeners_) close_listener(*listener);
}

void EventLoop::stop() {
  const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  stopping_.store(true);
  post({});
  if (thread_.joinable()) thread_.join();
  {
    // A run() caller sits on a thread stop() cannot join; wait for the
    // loop to report exit. A loop that never ran falls straight through.
    std::unique_lock<std::mutex> lock(mutex_);
    exited_cv_.wait(lock, [&] { return !running_; });
  }
  release_all();  // after a failure, this is where its sockets close
}

}  // namespace mapit::query
