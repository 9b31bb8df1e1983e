#include "core/naplet_socket.hpp"

namespace naplet::nsock {

SocketController* controller_of(agent::AgentContext& ctx) {
  return ctx.service_as<SocketController>(SocketController::kServiceName);
}

util::StatusOr<std::unique_ptr<NapletSocket>> NapletSocket::open(
    agent::AgentContext& ctx, const agent::AgentId& peer,
    ConnectBreakdown* breakdown) {
  SocketController* controller = controller_of(ctx);
  if (controller == nullptr) {
    return util::FailedPrecondition(
        "this server has no NapletSocket controller");
  }
  auto session = controller->connect(ctx.self(), peer, breakdown);
  if (!session.ok()) return session.status();
  return std::make_unique<NapletSocket>(*controller, std::move(*session));
}

util::StatusOr<std::unique_ptr<NapletSocket>> NapletSocket::reattach(
    agent::AgentContext& ctx, std::uint64_t conn_id) {
  SocketController* controller = controller_of(ctx);
  if (controller == nullptr) {
    return util::FailedPrecondition(
        "this server has no NapletSocket controller");
  }
  SessionPtr session = controller->session_by_id(conn_id);
  if (session == nullptr) {
    return util::NotFound("connection " + std::to_string(conn_id) +
                          " not present on this server");
  }
  if (session->local_agent() != ctx.self()) {
    return util::PermissionDenied("connection " + std::to_string(conn_id) +
                                  " belongs to agent '" +
                                  session->local_agent().name() + "'");
  }
  return std::make_unique<NapletSocket>(*controller, std::move(session));
}

util::Status NapletSocket::send(util::ByteSpan data) {
  return session_->send(data, kIoTimeout);
}

util::Status NapletSocket::send(std::string_view text) {
  return send(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

util::StatusOr<RecvResult> NapletSocket::recv(util::Duration timeout) {
  return session_->recv(timeout);
}

util::Status NapletSocket::suspend() { return controller_->suspend(session_); }
util::Status NapletSocket::resume() { return controller_->resume(session_); }
util::Status NapletSocket::close() { return controller_->close(session_); }

util::StatusOr<std::unique_ptr<NapletServerSocket>> NapletServerSocket::open(
    agent::AgentContext& ctx) {
  SocketController* controller = controller_of(ctx);
  if (controller == nullptr) {
    return util::FailedPrecondition(
        "this server has no NapletSocket controller");
  }
  NAPLET_RETURN_IF_ERROR(controller->listen(ctx.self()));
  return std::make_unique<NapletServerSocket>(*controller, ctx.self());
}

NapletServerSocket::~NapletServerSocket() { close(); }

util::StatusOr<std::unique_ptr<NapletSocket>> NapletServerSocket::accept(
    util::Duration timeout) {
  if (closed_) return util::FailedPrecondition("server socket closed");
  auto session = controller_->accept(self_, timeout);
  if (!session.ok()) return session.status();
  return std::make_unique<NapletSocket>(*controller_, std::move(*session));
}

void NapletServerSocket::close() {
  if (closed_) return;
  closed_ = true;
  (void)controller_->unlisten(self_);
}

}  // namespace naplet::nsock
