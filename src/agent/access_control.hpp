// Agent-oriented access control (paper §3.3).
//
// The paper's first security requirement: an agent must never open raw
// socket resources itself. All socket requests go through a proxy in the
// NapletSocket controller, which authenticates the requesting subject and
// checks permissions; raw sockets are created only under the *system*
// subject. This mirrors JDK subject-based (JAAS) access control: decisions
// depend on WHO runs the code, not where the code came from.
//
// Authentication uses a deployment-wide realm key: each server issues its
// resident agents HMAC-signed tokens; any server in the realm can verify
// them. (A realistic stand-in for the paper's authentication step without
// a PKI.)
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "agent/agent_id.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::agent {

/// Who is asking: a mobile agent, the local system (controller), or an
/// administrator.
struct Subject {
  enum class Kind : std::uint8_t { kAgent = 0, kSystem = 1, kAdmin = 2 };
  Kind kind = Kind::kAgent;
  std::string name;  // agent id name, or server name for system subjects

  [[nodiscard]] std::string to_string() const;
};

/// Resources an access decision can cover.
enum class Permission : std::uint8_t {
  kOpenSocket = 0,    // create an outbound raw socket
  kListenSocket = 1,  // bind a raw listening socket
  kUseNapletSocket = 2,  // request a mediated NapletSocket from the proxy
  kMigrate = 3,
  kSendMail = 4,
};

std::string_view to_string(Permission p) noexcept;

/// Signed credential proving an agent was admitted by a realm server.
struct AuthToken {
  std::string agent_name;
  std::string issuing_server;
  std::uint64_t issued_at_us = 0;
  util::Bytes tag;  // HMAC-SHA256(realm_key, fields)

  void persist(util::Archive& ar) {
    persist_body(ar);
    ar.field(tag);
  }
  /// The fields the tag signs.
  void persist_body(util::Archive& ar) {
    ar.field(agent_name);
    ar.field(issuing_server);
    ar.field(issued_at_us);
  }
};

/// Policy + authentication for one server. Default policy implements the
/// paper's rule: agents are DENIED kOpenSocket/kListenSocket, GRANTED
/// kUseNapletSocket/kMigrate/kSendMail; system and admin subjects are
/// granted everything.
class AccessController {
 public:
  /// `realm_key` must be shared by every server in the deployment.
  AccessController(std::string server_name, util::Bytes realm_key);

  /// Issue a token for an agent admitted to this server.
  [[nodiscard]] AuthToken issue_token(const AgentId& agent) const;

  /// Verify a token from any realm server; returns the authenticated
  /// subject or kUnauthenticated.
  [[nodiscard]] util::StatusOr<Subject> authenticate(
      const AuthToken& token) const;

  /// Permission check; kPermissionDenied with an explanatory message when
  /// the policy denies.
  [[nodiscard]] util::Status check(const Subject& subject,
                                   Permission permission) const;

  /// Policy overrides (e.g. deny a specific agent kUseNapletSocket, or — for
  /// negative tests — grant an agent a raw socket).
  void grant(const std::string& agent_name, Permission permission);
  void deny(const std::string& agent_name, Permission permission);

  /// Revoke every override for an agent (back to default policy).
  void clear_overrides(const std::string& agent_name);

  [[nodiscard]] const std::string& server_name() const noexcept {
    return server_name_;
  }

  /// Count of denied checks (observability for tests).
  [[nodiscard]] std::uint64_t denials() const;

 private:
  std::string server_name_;
  util::Bytes realm_key_;

  mutable std::mutex mu_;
  std::map<std::string, std::set<Permission>> grants_;
  std::map<std::string, std::set<Permission>> denies_;
  mutable std::uint64_t denials_ = 0;
};

}  // namespace naplet::agent
