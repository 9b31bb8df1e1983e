#include "agent/directory.hpp"

#include <algorithm>

#include "net/frame.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace naplet::agent {

namespace {

enum class Op : std::uint8_t {
  kRegisterAgent = 1,
  kBeginMigration = 2,
  kDeregisterAgent = 3,
  kTryLookup = 4,
  kLookup = 5,
  kKnown = 6,
  kSize = 7,
  kRegisterServer = 8,
  kDeregisterServer = 9,
  kLookupServer = 10,
  kEndMigration = 11,
};

/// Read-only ops hold no write intent; everything else mutates the map.
bool is_lookup_op(Op op) {
  switch (op) {
    case Op::kTryLookup:
    case Op::kLookup:
    case Op::kKnown:
    case Op::kSize:
    case Op::kLookupServer:
      return true;
    default:
      return false;
  }
}

constexpr util::Duration kConnectTimeout = std::chrono::seconds(3);
constexpr util::Duration kBaseReplyWait = std::chrono::seconds(5);

// Directory ops carry a NodeInfo as a length-prefixed blob.
void write_node(util::BytesWriter& w, const NodeInfo& node) {
  w.bytes(util::Archive::encode(node));
}

util::StatusOr<NodeInfo> read_node(util::BytesReader& r) {
  auto bytes = r.bytes();
  if (!bytes.ok()) return bytes.status();
  return util::Archive::decode<NodeInfo>(
      util::ByteSpan(bytes->data(), bytes->size()));
}

}  // namespace

// ===========================================================================
// DirectoryServer

DirectoryServer::DirectoryServer(net::NetworkPtr network,
                                 LocationService& backing, std::uint16_t port,
                                 obs::Registry* registry)
    : network_(std::move(network)),
      backing_(backing),
      port_(port),
      registry_(registry != nullptr ? *registry : obs::Registry::global()),
      requests_total_(registry_.counter("directory_requests")),
      lookups_total_(registry_.counter("directory_lookups")),
      mutations_total_(registry_.counter("directory_mutations")),
      inflight_(registry_.gauge("directory_inflight")),
      op_latency_(registry_.histogram("directory_op_us")) {}

DirectoryServer::~DirectoryServer() { stop(); }

util::Status DirectoryServer::start() {
  auto listener = network_->listen(port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  acceptor_ = std::thread([this] { accept_loop(); });
  return util::OkStatus();
}

void DirectoryServer::stop() {
  if (stopped_.exchange(true)) return;
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(workers_mu_);
    workers = std::exchange(workers_, {});
  }
  for (auto& t : workers) {
    if (t.joinable()) t.join();
  }
}

net::Endpoint DirectoryServer::endpoint() const {
  return listener_ ? listener_->local_endpoint() : net::Endpoint{};
}

void DirectoryServer::accept_loop() {
  while (!stopped_.load()) {
    auto accepted = listener_->accept(std::chrono::milliseconds(200));
    if (!accepted.ok()) {
      if (accepted.status().code() == util::StatusCode::kTimeout) continue;
      break;
    }
    std::shared_ptr<net::Stream> stream(std::move(*accepted));
    std::thread worker([this, stream] { serve(stream); });
    std::lock_guard lock(workers_mu_);
    workers_.push_back(std::move(worker));
    // Bound the backlog of joinable workers.
    if (workers_.size() > 64) {
      for (auto& t : workers_) {
        if (t.joinable() && t.get_id() != std::this_thread::get_id()) t.join();
      }
      workers_.clear();
    }
  }
}

void DirectoryServer::serve(std::shared_ptr<net::Stream> stream) {
  inflight_.add(1);
  util::Stopwatch watch(util::RealClock::instance());
  serve_request(stream);
  op_latency_.record(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, watch.elapsed_us())));
  inflight_.add(-1);
}

void DirectoryServer::serve_request(
    const std::shared_ptr<net::Stream>& stream) {
  auto request = net::read_frame(*stream);
  if (!request.ok()) {
    stream->close();
    return;
  }
  requests_served_.fetch_add(1);
  requests_total_.add(1);

  util::BytesReader r(util::ByteSpan(request->data(), request->size()));
  util::BytesWriter reply;
  auto fail = [&](const util::Status& status) {
    util::BytesWriter err;
    err.u8(static_cast<std::uint8_t>(status.code()));
    err.str(status.message());
    (void)net::write_frame(*stream, util::ByteSpan(err.data().data(),
                                                   err.data().size()));
    stream->close();
  };

  auto op_byte = r.u8();
  if (!op_byte.ok()) return fail(op_byte.status());
  reply.u8(static_cast<std::uint8_t>(util::StatusCode::kOk));
  reply.str("");

  if (is_lookup_op(static_cast<Op>(*op_byte))) {
    lookups_total_.add(1);
  } else {
    mutations_total_.add(1);
  }

  switch (static_cast<Op>(*op_byte)) {
    case Op::kRegisterAgent: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      auto node = read_node(r);
      if (!node.ok()) return fail(node.status());
      backing_.register_agent(AgentId(*name), *node);
      break;
    }
    case Op::kBeginMigration: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      backing_.begin_migration(AgentId(*name));
      break;
    }
    case Op::kEndMigration: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      backing_.end_migration(AgentId(*name));
      break;
    }
    case Op::kDeregisterAgent: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      backing_.deregister_agent(AgentId(*name));
      break;
    }
    case Op::kTryLookup: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      auto node = backing_.try_lookup(AgentId(*name));
      reply.boolean(node.has_value());
      if (node) write_node(reply, *node);
      break;
    }
    case Op::kLookup: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      auto timeout_us = r.u64();
      if (!timeout_us.ok()) return fail(timeout_us.status());
      auto node = backing_.lookup(
          AgentId(*name),
          util::us(static_cast<std::int64_t>(*timeout_us)));
      if (!node.ok()) return fail(node.status());
      write_node(reply, *node);
      break;
    }
    case Op::kKnown: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      reply.boolean(backing_.known(AgentId(*name)));
      break;
    }
    case Op::kSize: {
      reply.u64(backing_.size());
      break;
    }
    case Op::kRegisterServer: {
      auto node = read_node(r);
      if (!node.ok()) return fail(node.status());
      backing_.register_server(*node);
      break;
    }
    case Op::kDeregisterServer: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      backing_.deregister_server(*name);
      break;
    }
    case Op::kLookupServer: {
      auto name = r.str();
      if (!name.ok()) return fail(name.status());
      auto node = backing_.lookup_server(*name);
      if (!node.ok()) return fail(node.status());
      write_node(reply, *node);
      break;
    }
    default:
      return fail(util::InvalidArgument("unknown directory op"));
  }

  (void)net::write_frame(*stream, util::ByteSpan(reply.data().data(),
                                                 reply.data().size()));
  stream->close();
}

// ===========================================================================
// RemoteLocationService

RemoteLocationService::RemoteLocationService(net::NetworkPtr network,
                                             net::Endpoint directory)
    : network_(std::move(network)), directory_(std::move(directory)) {}

void RemoteLocationService::record_error(const util::Status& status) const {
  NAPLET_LOG(kWarn, "directory") << "round trip failed: "
                                 << status.to_string();
  std::lock_guard lock(error_mu_);
  last_error_ = status;
}

util::Status RemoteLocationService::last_error() const {
  std::lock_guard lock(error_mu_);
  return last_error_;
}

util::StatusOr<util::Bytes> RemoteLocationService::round_trip(
    util::ByteSpan request, util::Duration /*extra_wait*/) const {
  auto stream = network_->connect(directory_, kConnectTimeout);
  if (!stream.ok()) {
    record_error(stream.status());
    return stream.status();
  }
  if (auto st = net::write_frame(**stream, request); !st.ok()) {
    record_error(st);
    return st;
  }
  auto reply = net::read_frame(**stream);
  if (!reply.ok()) {
    record_error(reply.status());
    return reply.status();
  }
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  auto code = r.u8();
  if (!code.ok()) return code.status();
  auto message = r.str();
  if (!message.ok()) return message.status();
  if (static_cast<util::StatusCode>(*code) != util::StatusCode::kOk) {
    return util::Status(static_cast<util::StatusCode>(*code),
                        std::move(*message));
  }
  // Remaining bytes are the op-specific payload.
  auto payload = r.raw(r.remaining());
  if (!payload.ok()) return payload.status();
  return *payload;
}

void RemoteLocationService::register_agent(const AgentId& id,
                                           const NodeInfo& node) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kRegisterAgent));
  w.str(id.name());
  write_node(w, node);
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

void RemoteLocationService::begin_migration(const AgentId& id) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kBeginMigration));
  w.str(id.name());
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

void RemoteLocationService::end_migration(const AgentId& id) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kEndMigration));
  w.str(id.name());
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

void RemoteLocationService::deregister_agent(const AgentId& id) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kDeregisterAgent));
  w.str(id.name());
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

std::optional<NodeInfo> RemoteLocationService::try_lookup(
    const AgentId& id) const {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kTryLookup));
  w.str(id.name());
  auto reply = round_trip(util::ByteSpan(w.data().data(), w.data().size()));
  if (!reply.ok()) return std::nullopt;
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  auto present = r.boolean();
  if (!present.ok() || !*present) return std::nullopt;
  auto node = read_node(r);
  if (!node.ok()) return std::nullopt;
  return *node;
}

util::StatusOr<NodeInfo> RemoteLocationService::lookup(
    const AgentId& id, util::Duration timeout) const {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kLookup));
  w.str(id.name());
  w.u64(static_cast<std::uint64_t>(timeout.count()));
  auto reply = round_trip(util::ByteSpan(w.data().data(), w.data().size()),
                          timeout);
  if (!reply.ok()) return reply.status();
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  return read_node(r);
}

bool RemoteLocationService::known(const AgentId& id) const {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kKnown));
  w.str(id.name());
  auto reply = round_trip(util::ByteSpan(w.data().data(), w.data().size()));
  if (!reply.ok()) return false;
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  auto known = r.boolean();
  return known.ok() && *known;
}

bool RemoteLocationService::wait_gone(const AgentId& id,
                                      util::Duration timeout) const {
  // One RPC per check; escalate the pacing so a long wait does not hammer
  // the directory while a short one still resolves in a few ms.
  const std::int64_t deadline =
      util::RealClock::instance().now_us() + timeout.count();
  util::Duration pause = std::chrono::milliseconds(1);
  while (util::RealClock::instance().now_us() < deadline) {
    if (!known(id)) return true;
    util::RealClock::instance().sleep_for(pause);
    pause = std::min<util::Duration>(std::chrono::milliseconds(20),
                                     pause * 2);
  }
  return !known(id);
}

std::size_t RemoteLocationService::size() const {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kSize));
  auto reply = round_trip(util::ByteSpan(w.data().data(), w.data().size()));
  if (!reply.ok()) return 0;
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  auto n = r.u64();
  return n.ok() ? static_cast<std::size_t>(*n) : 0;
}

void RemoteLocationService::register_server(const NodeInfo& node) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kRegisterServer));
  write_node(w, node);
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

void RemoteLocationService::deregister_server(
    const std::string& server_name) {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kDeregisterServer));
  w.str(server_name);
  (void)round_trip(util::ByteSpan(w.data().data(), w.data().size()));
}

util::StatusOr<NodeInfo> RemoteLocationService::lookup_server(
    const std::string& server_name) const {
  util::BytesWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kLookupServer));
  w.str(server_name);
  auto reply = round_trip(util::ByteSpan(w.data().data(), w.data().size()));
  if (!reply.ok()) return reply.status();
  util::BytesReader r(util::ByteSpan(reply->data(), reply->size()));
  return read_node(r);
}

}  // namespace naplet::agent
