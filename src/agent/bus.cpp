#include "agent/bus.hpp"

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace naplet::agent {

ServerBus::ServerBus(net::DatagramPtr socket, obs::Registry& registry,
                     net::RudpConfig config)
    : channel_(std::make_unique<net::ReliableChannel>(
          std::move(socket), registry,
          [this](net::ReliableChannel::Message msg) {
            dispatch(std::move(msg));
          },
          config)) {}

ServerBus::~ServerBus() { stop(); }

void ServerBus::stop() {
  // Handlers point into the controller and agent server, and callers tear
  // those down right after stop() returns: the channel's close() waits for
  // a running handler (e.g. a passive drain inside handle_sus), unless the
  // handler itself initiated the stop.
  channel_->close();
}

void ServerBus::subscribe(BusKind kind, Handler handler) {
  util::MutexLock lock(mu_);
  handlers_[kind] = std::move(handler);
}

namespace {

util::Bytes tagged(BusKind kind, util::ByteSpan payload) {
  util::BytesWriter w(payload.size() + 1);
  w.u8(static_cast<std::uint8_t>(kind));
  w.raw(payload);
  return std::move(w).take();
}

}  // namespace

util::Status ServerBus::send(const net::Endpoint& dest, BusKind kind,
                             util::ByteSpan payload,
                             util::Duration max_wait) {
  const util::Bytes wire = tagged(kind, payload);
  return channel_->send(dest, util::ByteSpan(wire.data(), wire.size()),
                        max_wait);
}

util::Status ServerBus::post(const net::Endpoint& dest, BusKind kind,
                             util::ByteSpan payload,
                             net::ReliableChannel::OnFailure on_failure) {
  const util::Bytes wire = tagged(kind, payload);
  return channel_->post(dest, util::ByteSpan(wire.data(), wire.size()),
                        std::move(on_failure));
}

void ServerBus::dispatch(net::ReliableChannel::Message msg) {
  if (msg.payload.empty()) return;
  const auto kind = static_cast<BusKind>(msg.payload[0]);
  Handler handler;
  {
    util::MutexLock lock(mu_);
    auto it = handlers_.find(kind);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    NAPLET_LOG(kDebug, "bus") << "no handler for kind "
                              << static_cast<int>(kind);
    return;
  }
  handler(msg.from, util::ByteSpan(msg.payload.data() + 1,
                                   msg.payload.size() - 1));
}

}  // namespace naplet::agent
