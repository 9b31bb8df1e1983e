// ServerBus: one reliable control channel per agent server, shared by every
// middleware component (the paper's controller and redirector pair are
// "shared by all NapletSockets so that only one pair is necessary" — this is
// that sharing point, extended to PostOffice mail as well).
//
// Messages are (kind, payload); components register a handler per kind and
// a single dispatch thread demultiplexes inbound traffic. Handlers reply
// with post(), which returns once the reply is on the wire, so the
// dispatcher does not wait out a round trip per message. They may still
// block on send() (rudp ACKs are processed by the channel's own receiver
// thread, so no deadlock).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "net/rudp.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::agent {

/// Well-known message kinds on the bus.
enum class BusKind : std::uint8_t {
  kControl = 1,  // NapletSocket control protocol (core library)
  kMail = 2,     // PostOffice asynchronous messages
  kProbe = 3,    // liveness/testing
};

class ServerBus {
 public:
  using Handler =
      std::function<void(const net::Endpoint& from, util::ByteSpan payload)>;

  explicit ServerBus(std::unique_ptr<net::ReliableChannel> channel);
  ~ServerBus();

  ServerBus(const ServerBus&) = delete;
  ServerBus& operator=(const ServerBus&) = delete;

  /// Register the handler for one kind (replaces any previous handler).
  void subscribe(BusKind kind, Handler handler);

  /// Reliable send; blocks until the peer's channel ACKs. A non-zero
  /// `max_wait` caps the total blocking time (see ReliableChannel::send).
  util::Status send(const net::Endpoint& dest, BusKind kind,
                    util::ByteSpan payload, util::Duration max_wait = {});

  /// Reliable send that returns once the first transmission is out; the
  /// channel keeps retransmitting it (see ReliableChannel::post).
  util::Status post(const net::Endpoint& dest, BusKind kind,
                    util::ByteSpan payload);

  [[nodiscard]] net::Endpoint local_endpoint() const {
    return channel_->local_endpoint();
  }

  [[nodiscard]] net::ReliableChannel& channel() { return *channel_; }

  void stop();

 private:
  void dispatch_loop();

  std::unique_ptr<net::ReliableChannel> channel_ NAPLET_NOT_GUARDED(
      "created at construction before the dispatcher thread; the channel "
      "is internally synchronized");
  util::Mutex mu_{util::LockRank::kBus, "bus"};
  std::map<BusKind, Handler> handlers_ NAPLET_GUARDED_BY(mu_);
  std::atomic<bool> stopped_{false};
  std::thread dispatcher_;
};

}  // namespace naplet::agent
