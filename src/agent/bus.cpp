#include "agent/bus.hpp"

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace naplet::agent {

ServerBus::ServerBus(std::unique_ptr<net::ReliableChannel> channel)
    : channel_(std::move(channel)), dispatcher_([this] { dispatch_loop(); }) {}

ServerBus::~ServerBus() {
  stop();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ServerBus::stop() {
  if (stopped_.exchange(true)) return;
  channel_->close();
  // Handlers point into the controller and agent server, and callers tear
  // those down right after stop() returns — so an in-flight dispatch (e.g.
  // a passive drain blocked inside handle_sus) must finish first. Skip the
  // join when a handler itself initiated the stop.
  if (dispatcher_.joinable() &&
      dispatcher_.get_id() != std::this_thread::get_id()) {
    dispatcher_.join();
  }
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
                             util::ByteSpan payload) {
  const util::Bytes wire = tagged(kind, payload);
  return channel_->post(dest, util::ByteSpan(wire.data(), wire.size()));
}

void ServerBus::dispatch_loop() {
  while (!stopped_.load()) {
    auto msg = channel_->recv(std::chrono::milliseconds(200));
    if (!msg) {
      if (stopped_.load()) break;
      continue;
    }
    if (msg->payload.empty()) continue;
    const auto kind = static_cast<BusKind>(msg->payload[0]);
    Handler handler;
    {
      util::MutexLock lock(mu_);
      auto it = handlers_.find(kind);
      if (it != handlers_.end()) handler = it->second;
    }
    if (!handler) {
      NAPLET_LOG(kDebug, "bus") << "no handler for kind "
                                << static_cast<int>(kind);
      continue;
    }
    handler(msg->from, util::ByteSpan(msg->payload.data() + 1,
                                      msg->payload.size() - 1));
  }
}

}  // namespace naplet::agent
