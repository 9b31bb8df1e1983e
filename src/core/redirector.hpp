// Redirector: the per-host shared TCP acceptor for socket handoff
// (paper §3.4, Figure 6).
//
// A client (or a resuming mover) connects to the redirector and sends one
// handoff frame naming the connection. The redirector routes the accepted
// socket to the controller, which hands it to the right NapletServerSocket
// or suspended session — saving the name/port query round trip and the
// per-agent port table the paper describes. The redirector keeps no
// table of its own: whether a RESUME names a live connection is decided by
// the controller's session table, which answers an unknown one with kError.
//
// One acceptor thread queues accepted streams for a fixed pool of
// kHandoffWorkers workers. A stream must deliver its first frame within
// kFirstFrameDeadline of being accepted; a worker that finds nothing to
// read within one short slice puts the stream back at the tail of the
// queue, so clients that connect and never write cannot hold the pool.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/wire.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::nsock {

class Redirector {
 public:
  /// Handoff workers serving accepted streams (a constant, not a knob).
  static constexpr int kHandoffWorkers = 4;
  /// How long after its accept a stream has to deliver its first frame.
  static constexpr util::Duration kFirstFrameDeadline =
      std::chrono::seconds(2);

  /// Handler owns the stream; it validates, replies on the stream, and
  /// either installs it as a data socket or closes it.
  using HandoffHandler =
      std::function<void(std::shared_ptr<net::Stream>, HandoffMsg)>;

  Redirector(net::Network& network, std::uint16_t port,
             HandoffHandler handler);
  ~Redirector();

  Redirector(const Redirector&) = delete;
  Redirector& operator=(const Redirector&) = delete;

  util::Status start();
  void stop();

  /// Host name used to attribute handoff-accept trace spans. Set once,
  /// before start().
  void set_host_label(std::string host) { host_label_ = std::move(host); }

  [[nodiscard]] net::Endpoint endpoint() const;

  /// Handoffs whose first frame was malformed, cut short, or not complete
  /// within kFirstFrameDeadline (observability).
  [[nodiscard]] std::uint64_t bad_handoffs() const {
    return bad_handoffs_.load();
  }

 private:
  /// An accepted stream waiting for a worker.
  struct Accepted {
    std::shared_ptr<net::Stream> stream;
    std::int64_t deadline_us = 0;  // first frame due by (RealClock)
  };

  void accept_loop();
  void worker_loop();
  /// Read `item`'s first frame. Returns nullopt when the stream was put
  /// back in the queue (nothing to read yet) or disposed of as a bad
  /// handoff.
  std::optional<util::Bytes> first_frame(Accepted& item);
  /// Read exactly `n` bytes by `deadline_us`, giving up early on stop().
  util::Status read_until(net::Stream& stream, std::uint8_t* out,
                          std::size_t n, std::int64_t deadline_us);
  void serve(const std::shared_ptr<net::Stream>& stream,
             const util::Bytes& frame);
  void reject_bad(net::Stream& stream);

  net::Network& network_;
  std::uint16_t port_ NAPLET_NOT_GUARDED("set at construction, immutable");
  HandoffHandler handler_ NAPLET_NOT_GUARDED(
      "set at construction, immutable while the acceptor runs");
  std::string host_label_ NAPLET_NOT_GUARDED(
      "written before start(), read-only by workers");

  net::ListenerPtr listener_ NAPLET_NOT_GUARDED(
      "created in start() before the acceptor thread; Listener is "
      "internally synchronized");
  std::thread acceptor_;
  util::BlockingQueue<Accepted> accepted_;
  std::vector<std::thread> workers_;  // started in start(), joined in stop()
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> bad_handoffs_{0};
};

}  // namespace naplet::nsock
