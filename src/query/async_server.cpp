#include "query/async_server.h"

#include <memory>
#include <string_view>

#include "query/hub.h"

namespace mapit::query {

/// One query connection: ProtocolSession framing plus what the server
/// adds around it — the hot-swap pin, load shedding and the idle timeout.
class AsyncServer::QuerySession final : public Session {
 public:
  QuerySession(AsyncServer& server, const QueryEngine& setup_engine,
               SteadyTime now)
      : server_(server),
        protocol_(setup_engine, server.options_.max_line_bytes,
                  [this] { return server_.health_line(pin_.get()); }),
        last_activity_(now) {}

  bool feed(std::string_view bytes, SteadyTime now,
            std::string& out) override {
    if (bytes.empty()) return false;  // half-closed: flush, then close
    // Load shedding: past the aggregate in-flight budget, stop taking on
    // new work — this batch gets one overload answer in the peer's own
    // framing and the connection closes once it is flushed. The batch is
    // never parsed, so pressure can only fall while over budget.
    const std::size_t budget = server_.options_.max_inflight_bytes;
    if (budget > 0 && server_.loop_.pending_bytes() > budget) {
      server_.shed_.fetch_add(1, std::memory_order_relaxed);
      const std::string_view answer = detail::kOverloadRefusal;
      if (protocol_.binary_mode()) {
        append_binary_frame(out, answer.substr(0, answer.size() - 1));
      } else {
        out.append(answer);
      }
      return false;
    }
    last_activity_ = now;
    // Pin exactly one snapshot generation for this read batch (hub mode):
    // every answer it produces, HEALTH included, comes from it, so a
    // concurrent republish can never tear a batch.
    if (server_.hub_ == nullptr) {
      protocol_.feed(bytes, out);
      return true;
    }
    pin_ = server_.hub_->current();
    protocol_.feed(pin_->engine, bytes, out);
    pin_.reset();
    return true;
  }

  [[nodiscard]] SteadyTime deadline() const override {
    const auto idle = server_.options_.idle_timeout;
    return idle.count() > 0 ? last_activity_ + idle : SteadyTime::max();
  }

  bool on_deadline(SteadyTime, std::string&) override {
    return false;  // idle timeout: close
  }

 private:
  AsyncServer& server_;
  std::shared_ptr<const LoadedSnapshot> pin_;  ///< during a hub-mode feed
  ProtocolSession protocol_;
  SteadyTime last_activity_;
};

AsyncServer::AsyncServer(const QueryEngine& engine,
                         const ServerOptions& options)
    : AsyncServer(&engine, nullptr, options) {}

AsyncServer::AsyncServer(SnapshotHub& hub, const ServerOptions& options)
    : AsyncServer(nullptr, &hub, options) {}

AsyncServer::AsyncServer(const QueryEngine& engine, std::uint16_t port)
    : AsyncServer(engine, ServerOptions{.port = port}) {}

AsyncServer::AsyncServer(const QueryEngine* engine, SnapshotHub* hub,
                         const ServerOptions& options)
    : engine_(engine),
      hub_(hub),
      options_(options),
      started_(std::chrono::steady_clock::now()),
      loop_(options.io != nullptr ? *options.io : fault::system_io()) {
  port_ = loop_.listen(options_, [this](std::uint64_t, SteadyTime now) {
    // In hub mode the construction-time engine is only a placeholder —
    // every feed re-points the session at the generation it pinned.
    const QueryEngine& setup_engine =
        hub_ != nullptr ? hub_->current()->engine : *engine_;
    return std::make_unique<QuerySession>(*this, setup_engine, now);
  });
}

AsyncServer::~AsyncServer() { stop(); }

void AsyncServer::serve_forever() { loop_.run(); }

void AsyncServer::start() { loop_.start(); }

void AsyncServer::stop() { loop_.stop(); }

std::string AsyncServer::health_line(const LoadedSnapshot* pinned) const {
  return format_health(pinned != nullptr ? pinned->engine : *engine_,
                       pinned != nullptr ? pinned->generation : 1,
                       hub_ != nullptr ? hub_->swap_count() : 0, started_,
                       loop_.connections(), refused_connections(),
                       accept_retries(), shed_connections(),
                       hub_ != nullptr ? hub_->last_error() : std::string());
}

}  // namespace mapit::query
