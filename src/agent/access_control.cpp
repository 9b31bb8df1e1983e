#include "agent/access_control.hpp"

#include "crypto/hmac.hpp"
#include "util/clock.hpp"

namespace naplet::agent {

std::string Subject::to_string() const {
  switch (kind) {
    case Kind::kAgent: return "agent:" + name;
    case Kind::kSystem: return "system:" + name;
    case Kind::kAdmin: return "admin:" + name;
  }
  return "unknown:" + name;
}

std::string_view to_string(Permission p) noexcept {
  switch (p) {
    case Permission::kOpenSocket: return "open-socket";
    case Permission::kListenSocket: return "listen-socket";
    case Permission::kUseNapletSocket: return "use-naplet-socket";
    case Permission::kMigrate: return "migrate";
    case Permission::kSendMail: return "send-mail";
  }
  return "unknown";
}

AccessController::AccessController(std::string server_name,
                                   util::Bytes realm_key)
    : server_name_(std::move(server_name)), realm_key_(std::move(realm_key)) {}

AuthToken AccessController::issue_token(const AgentId& agent) const {
  AuthToken token;
  token.agent_name = agent.name();
  token.issuing_server = server_name_;
  token.issued_at_us =
      static_cast<std::uint64_t>(util::RealClock::instance().now_us());
  const util::Bytes payload = util::Archive::encode_body(token);
  const crypto::Sha256Digest tag = crypto::hmac_sha256(
      util::ByteSpan(realm_key_.data(), realm_key_.size()),
      util::ByteSpan(payload.data(), payload.size()));
  token.tag.assign(tag.begin(), tag.end());
  return token;
}

util::StatusOr<Subject> AccessController::authenticate(
    const AuthToken& token) const {
  const util::Bytes payload = util::Archive::encode_body(token);
  if (!crypto::hmac_sha256_verify(
          util::ByteSpan(realm_key_.data(), realm_key_.size()),
          util::ByteSpan(payload.data(), payload.size()),
          util::ByteSpan(token.tag.data(), token.tag.size()))) {
    return util::Unauthenticated("bad token signature for agent '" +
                                 token.agent_name + "'");
  }
  return Subject{Subject::Kind::kAgent, token.agent_name};
}

util::Status AccessController::check(const Subject& subject,
                                     Permission permission) const {
  // System and admin subjects: everything.
  if (subject.kind != Subject::Kind::kAgent) return util::OkStatus();

  std::lock_guard lock(mu_);

  // Explicit overrides first.
  if (auto it = denies_.find(subject.name);
      it != denies_.end() && it->second.contains(permission)) {
    ++denials_;
    return util::PermissionDenied(subject.to_string() + " explicitly denied " +
                                  std::string(to_string(permission)));
  }
  if (auto it = grants_.find(subject.name);
      it != grants_.end() && it->second.contains(permission)) {
    return util::OkStatus();
  }

  // Default policy: agents never touch raw sockets (paper §3.3); mediated
  // services are allowed.
  switch (permission) {
    case Permission::kOpenSocket:
    case Permission::kListenSocket:
      ++denials_;
      return util::PermissionDenied(
          subject.to_string() + " may not " +
          std::string(to_string(permission)) +
          " (raw sockets are reserved to the system subject)");
    case Permission::kUseNapletSocket:
    case Permission::kMigrate:
    case Permission::kSendMail:
      return util::OkStatus();
  }
  ++denials_;
  return util::PermissionDenied("unknown permission");
}

void AccessController::grant(const std::string& agent_name,
                             Permission permission) {
  std::lock_guard lock(mu_);
  grants_[agent_name].insert(permission);
  denies_[agent_name].erase(permission);
}

void AccessController::deny(const std::string& agent_name,
                            Permission permission) {
  std::lock_guard lock(mu_);
  denies_[agent_name].insert(permission);
  grants_[agent_name].erase(permission);
}

void AccessController::clear_overrides(const std::string& agent_name) {
  std::lock_guard lock(mu_);
  grants_.erase(agent_name);
  denies_.erase(agent_name);
}

std::uint64_t AccessController::denials() const {
  std::lock_guard lock(mu_);
  return denials_;
}

}  // namespace naplet::agent
