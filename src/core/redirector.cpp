#include "core/redirector.hpp"

#include <utility>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {
std::int64_t lease_now_us() { return util::RealClock::instance().now_us(); }
}  // namespace

Redirector::Redirector(net::Network& network, std::uint16_t port,
                       HandoffHandler handler, LeaseConfig leases)
    : network_(network),
      port_(port),
      handler_(std::move(handler)),
      lease_config_(leases) {}

Redirector::~Redirector() { stop(); }

util::Status Redirector::start() {
  auto listener = network_.listen(port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  acceptor_ = std::thread([this] { accept_loop(); });
  return util::OkStatus();
}

void Redirector::stop() {
  if (stopped_.exchange(true)) return;
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  reap_handlers(/*all=*/true);
}

net::Endpoint Redirector::endpoint() const {
  return listener_ ? listener_->local_endpoint() : net::Endpoint{};
}

void Redirector::accept_loop() {
  while (!stopped_.load()) {
    auto accepted = listener_->accept(std::chrono::milliseconds(200));
    evict_expired_leases();  // the lease sweep rides the accept tick
    if (!accepted.ok()) {
      if (accepted.status().code() == util::StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    std::shared_ptr<net::Stream> stream(std::move(*accepted));
    std::thread worker([this, stream]() mutable {
      auto frame = net::read_frame(*stream);
      if (!frame.ok()) {
        bad_handoffs_.fetch_add(1);
        stream->close();
        return;
      }
      // A batch frame announces itself with its magic first byte; route it
      // to the coalesced exchange instead of the per-connection path.
      if (!frame->empty() && (*frame)[0] == kBatchHandoffMagic) {
        auto batch = BatchHandoffMsg::decode(
            util::ByteSpan(frame->data(), frame->size()));
        if (!batch.ok()) {
          bad_handoffs_.fetch_add(1);
          NAPLET_LOG(kWarn, "redirector")
              << "bad batch handoff frame: " << batch.status().to_string();
          stream->close();
          return;
        }
        serve_batch(stream, *batch);
        return;
      }
      auto msg = HandoffMsg::decode(util::ByteSpan(frame->data(),
                                                   frame->size()));
      if (!msg.ok()) {
        bad_handoffs_.fetch_add(1);
        NAPLET_LOG(kWarn, "redirector")
            << "bad handoff frame: " << msg.status().to_string();
        stream->close();
        return;
      }
      if (fault::armed()) {
        const fault::Decision d = fault::hit("redirector.handoff.accept");
        if (d.action == fault::Action::kKill ||
            d.action == fault::Action::kDrop ||
            d.action == fault::Action::kError) {
          // The worker dies mid-handoff: the request was read off the wire
          // but no reply will ever come. The peer's resume retry loop must
          // absorb this.
          stream->close();
          return;
        }
      }
      // Lease gate: a RESUME naming a connection whose lease expired (or
      // was never registered here) must not reach the handler — the owning
      // controller is gone. The mover's retry loop refreshes the peer's
      // location and tries the live node instead.
      if (lease_config_.enabled && msg->type == HandoffType::kResume &&
          !lease_live(msg->conn_id)) {
        handoffs_fenced_.fetch_add(1);
        HandoffMsg err;
        err.type = HandoffType::kError;
        err.conn_id = msg->conn_id;
        err.reason = "no live lease for conn " + std::to_string(msg->conn_id);
        (void)net::write_frame(*stream, err.encode());
        stream->close();
        return;
      }
      // Past every gate: this handoff WILL reach the controller. (The sink
      // drops untraced messages — ATTACH carries no trace id.)
      {
        obs::SpanEvent ev;
        ev.trace_id = msg->trace_id;
        ev.kind = obs::SpanKind::kHandoffAccept;
        ev.conn_id = msg->conn_id;
        ev.host = host_label_;
        ev.detail = std::string(to_string(msg->type));
        obs::TraceSink::instance().record(std::move(ev));
      }
      handler_(std::move(stream), std::move(*msg));
    });
    {
      util::MutexLock lock(handlers_mu_);
      handlers_.push_back(std::move(worker));
    }
    reap_handlers(/*all=*/false);
  }
}

void Redirector::serve_batch(const std::shared_ptr<net::Stream>& stream,
                             const BatchHandoffMsg& batch) {
  if (fault::armed()) {
    const fault::Decision d = fault::hit("redirector.handoff.batch");
    if (d.action == fault::Action::kKill || d.action == fault::Action::kDrop ||
        d.action == fault::Action::kError) {
      // The whole exchange dies unanswered; the mover's retry loop falls
      // back to re-sending the batch (or per-agent handoffs).
      stream->close();
      return;
    }
  }
  BatchHandoffReply reply;
  reply.entries.resize(batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    const HandoffMsg& entry = batch.entries[i];
    // Same lease fence as the per-connection path, applied entry-wise: a
    // dead lease fails ITS disposition without poisoning the batch.
    if (lease_config_.enabled && entry.type == HandoffType::kResume &&
        !lease_live(entry.conn_id)) {
      handoffs_fenced_.fetch_add(1);
      reply.entries[i].ok = false;
      reply.entries[i].reason =
          "no live lease for conn " + std::to_string(entry.conn_id);
    } else {
      reply.entries[i].ok = true;
    }
  }
  if (batch_handler_) batch_handler_(batch, reply);
  {
    obs::SpanEvent ev;
    ev.trace_id = batch.trace_id;
    ev.kind = obs::SpanKind::kHandoffAccept;
    ev.conn_id = batch.entries.empty() ? 0 : batch.entries.front().conn_id;
    ev.host = host_label_;
    ev.detail = "batch:" + std::to_string(batch.entries.size());
    obs::TraceSink::instance().record(std::move(ev));
  }
  // Count the exchange before the reply leaves: a client that has read
  // the reply must observe the counter already bumped.
  batch_exchanges_.fetch_add(1);
  (void)net::write_frame(*stream, reply.encode());
  stream->close();
}

void Redirector::register_lease(std::uint64_t conn_id) {
  if (!lease_config_.enabled) return;
  util::MutexLock lock(leases_mu_);
  leases_[conn_id] = lease_now_us() + lease_config_.ttl.count();
}

void Redirector::refresh_lease(std::uint64_t conn_id) {
  if (!lease_config_.enabled) return;
  util::MutexLock lock(leases_mu_);
  auto it = leases_.find(conn_id);
  if (it != leases_.end()) {
    it->second = lease_now_us() + lease_config_.ttl.count();
  }
}

void Redirector::release_lease(std::uint64_t conn_id) {
  if (!lease_config_.enabled) return;
  util::MutexLock lock(leases_mu_);
  leases_.erase(conn_id);
}

bool Redirector::lease_live(std::uint64_t conn_id) const {
  if (!lease_config_.enabled) return true;
  util::MutexLock lock(leases_mu_);
  auto it = leases_.find(conn_id);
  return it != leases_.end() && it->second > lease_now_us();
}

std::size_t Redirector::evict_expired_leases() {
  if (!lease_config_.enabled) return 0;
  std::size_t evicted = 0;
  const std::int64_t now = lease_now_us();
  util::MutexLock lock(leases_mu_);
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second <= now) {
      NAPLET_LOG(kInfo, "redirector")
          << "lease expired for conn " << it->first;
      it = leases_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  leases_expired_.fetch_add(evicted);
  return evicted;
}

std::size_t Redirector::lease_count() const {
  util::MutexLock lock(leases_mu_);
  return leases_.size();
}

void Redirector::reap_handlers(bool all) {
  std::vector<std::thread> done;
  {
    util::MutexLock lock(handlers_mu_);
    if (all) {
      done = std::exchange(handlers_, {});
    } else if (handlers_.size() > 32) {
      // Bound the backlog; joining old handlers is cheap (they are short).
      done.swap(handlers_);
    }
  }
  for (auto& t : done) {
    if (t.joinable()) t.join();
  }
}

}  // namespace naplet::nsock
