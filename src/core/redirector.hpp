// Redirector: the per-host shared TCP acceptor for socket handoff
// (paper §3.4, Figure 6).
//
// A client (or a resuming mover) connects to the redirector and sends one
// handoff frame naming the connection. The redirector routes the accepted
// socket to the controller, which hands it to the right NapletServerSocket
// or suspended session — saving the name/port query round trip and the
// per-agent port table the paper describes.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/wire.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::nsock {

/// Crash-recovery extension: redirector entries become leases. The owning
/// controller registers a lease per connection and refreshes it from its
/// repair loop; entries whose lease expires (host crashed and never came
/// back) are evicted by the accept-loop sweep, and a RESUME naming an
/// expired/unknown lease is answered with kError instead of being routed
/// into a dead controller.
struct LeaseConfig {
  bool enabled = false;
  util::Duration ttl{std::chrono::seconds(3)};
};

class Redirector {
 public:
  /// Handler owns the stream; it validates, replies on the stream, and
  /// either installs it as a data socket or closes it.
  using HandoffHandler =
      std::function<void(std::shared_ptr<net::Stream>, HandoffMsg)>;

  /// Batch exchange handler: called once per batch frame AFTER the lease
  /// gate pre-filled `reply` (fenced entries are already marked not-ok).
  /// It may refine any disposition; the redirector then writes the single
  /// reply frame and closes the stream. When unset, the pre-filled
  /// dispositions are answered as-is — a coalesced lease/route check.
  using BatchHandler =
      std::function<void(const BatchHandoffMsg&, BatchHandoffReply&)>;

  Redirector(net::Network& network, std::uint16_t port,
             HandoffHandler handler, LeaseConfig leases = {});
  ~Redirector();

  Redirector(const Redirector&) = delete;
  Redirector& operator=(const Redirector&) = delete;

  util::Status start();
  void stop();

  /// Host name used to attribute handoff-accept trace spans. Set once,
  /// before start().
  void set_host_label(std::string host) { host_label_ = std::move(host); }

  /// Install the batch exchange handler. Set once, before start().
  void set_batch_handler(BatchHandler handler) {
    batch_handler_ = std::move(handler);
  }

  [[nodiscard]] net::Endpoint endpoint() const;

  /// Handoffs whose first frame was malformed (observability).
  [[nodiscard]] std::uint64_t bad_handoffs() const {
    return bad_handoffs_.load();
  }

  /// Batch exchanges served (each one coalesces N per-agent round trips).
  [[nodiscard]] std::uint64_t batch_exchanges() const {
    return batch_exchanges_.load();
  }

  // ---- lease table ----

  /// Register (or re-arm) the lease for `conn_id`. No-op when disabled.
  void register_lease(std::uint64_t conn_id);
  /// Extend the lease for `conn_id`; no-op if absent or disabled.
  void refresh_lease(std::uint64_t conn_id);
  /// Drop the lease (connection closed or exported away).
  void release_lease(std::uint64_t conn_id);
  /// True when the lease exists and has not expired (always true when
  /// leasing is disabled — the gate is opt-in).
  [[nodiscard]] bool lease_live(std::uint64_t conn_id) const;
  /// Drop every expired entry; returns how many were evicted. Called from
  /// the accept-loop tick, public for tests.
  std::size_t evict_expired_leases();

  [[nodiscard]] std::size_t lease_count() const;
  [[nodiscard]] std::uint64_t leases_expired() const {
    return leases_expired_.load();
  }
  [[nodiscard]] std::uint64_t handoffs_fenced() const {
    return handoffs_fenced_.load();
  }

 private:
  void accept_loop();
  void reap_handlers(bool all);

  void serve_batch(const std::shared_ptr<net::Stream>& stream,
                   const BatchHandoffMsg& batch);

  net::Network& network_;
  std::uint16_t port_ NAPLET_NOT_GUARDED("set at construction, immutable");
  HandoffHandler handler_ NAPLET_NOT_GUARDED(
      "set at construction, immutable while the acceptor runs");
  BatchHandler batch_handler_ NAPLET_NOT_GUARDED(
      "written before start(), read-only by workers");
  LeaseConfig lease_config_ NAPLET_NOT_GUARDED(
      "set at construction, immutable");
  std::string host_label_ NAPLET_NOT_GUARDED(
      "written before start(), read-only by workers");

  net::ListenerPtr listener_ NAPLET_NOT_GUARDED(
      "created in start() before the acceptor thread; Listener is "
      "internally synchronized");
  std::thread acceptor_;
  util::Mutex handlers_mu_{util::LockRank::kRedirector, "redirector"};
  std::vector<std::thread> handlers_ NAPLET_GUARDED_BY(handlers_mu_);
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> bad_handoffs_{0};
  std::atomic<std::uint64_t> batch_exchanges_{0};

  // Leaf lock: held only for map operations, never across handler_ or
  // any stream I/O.
  mutable util::Mutex leases_mu_{util::LockRank::kRedirectorLeases,
                                 "redirector.leases"};
  std::map<std::uint64_t, std::int64_t> leases_  // conn_id -> expiry (us)
      NAPLET_GUARDED_BY(leases_mu_);
  std::atomic<std::uint64_t> leases_expired_{0};
  std::atomic<std::uint64_t> handoffs_fenced_{0};
};

}  // namespace naplet::nsock
