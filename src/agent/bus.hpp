// ServerBus: one reliable control channel per agent server, shared by every
// middleware component (the paper's controller and redirector pair are
// "shared by all NapletSockets so that only one pair is necessary" — this is
// that sharing point, extended to PostOffice mail as well).
//
// Messages are (kind, payload); components register a handler per kind.
// Handlers run on the channel's receiver thread, right after the message's
// transport ACK is out: one at a time per node, in send order per peer,
// exactly once. While a handler runs, the node processes no other control
// datagram — ACKs for its own sends included — so the handler contract is:
//
//  - never wait on a transport ACK: reply with post(). A blocking send()
//    from a handler returns kFailedPrecondition at once;
//  - do bounded local work only. Draining a suspended session's data
//    stream and a journal fsync are the longest a handler may take; work
//    that waits on a peer (PostOffice forwarding) goes to another thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

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

  /// The bus's channel runs over `socket` and records into `registry`,
  /// which must outlive the bus.
  ServerBus(net::DatagramPtr socket, obs::Registry& registry,
            net::RudpConfig config = {});
  ~ServerBus();

  ServerBus(const ServerBus&) = delete;
  ServerBus& operator=(const ServerBus&) = delete;

  /// Register the handler for one kind (replaces any previous handler).
  void subscribe(BusKind kind, Handler handler);

  /// Reliable send; blocks until the peer's channel ACKs. A non-zero
  /// `max_wait` caps the total blocking time (see ReliableChannel::send).
  /// From a handler it fails at once with kFailedPrecondition.
  util::Status send(const net::Endpoint& dest, BusKind kind,
                    util::ByteSpan payload, util::Duration max_wait = {});

  /// Reliable send that returns once the first transmission is out; the
  /// channel keeps retransmitting it, and tells `on_failure` if the
  /// retransmits run out (see ReliableChannel::post).
  util::Status post(const net::Endpoint& dest, BusKind kind,
                    util::ByteSpan payload,
                    net::ReliableChannel::OnFailure on_failure = {});

  [[nodiscard]] net::Endpoint local_endpoint() const {
    return channel_->local_endpoint();
  }

  [[nodiscard]] net::ReliableChannel& channel() { return *channel_; }

  /// Close the channel and wait for a handler that is running, unless
  /// called from that handler. Idempotent.
  void stop();

 private:
  void dispatch(net::ReliableChannel::Message msg);

  util::Mutex mu_{util::LockRank::kBus, "bus"};
  std::map<BusKind, Handler> handlers_ NAPLET_GUARDED_BY(mu_);
  // Last: its receiver thread calls dispatch() as soon as it starts.
  std::unique_ptr<net::ReliableChannel> channel_ NAPLET_NOT_GUARDED(
      "created at construction; the channel is internally synchronized");
};

}  // namespace naplet::agent
