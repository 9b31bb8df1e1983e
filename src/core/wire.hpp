// Wire formats for the NapletSocket protocol.
//
// Two channels carry protocol messages:
//  * the UDP control channel (ServerBus kind kControl): CONNECT handshake,
//    SUS/SUS_ACK/ACK_WAIT/SUS_RES suspension protocol, CLS/CLS_ACK close;
//  * the TCP handoff stream through the redirector: ATTACH (the client's
//    "ID" message completing connection setup) and RESUME (re-binding a
//    suspended connection to a fresh data socket after migration).
//
// Every post-setup request (SUS, SUS_RES, CLS, RESUME, ATTACH) carries an
// HMAC-SHA256 tag keyed by the connection's Diffie–Hellman session key,
// computed over (type, conn_id, seq fields) — the paper's defense against
// connection hijack by an eavesdropper (§3.3). With security disabled the
// tag is empty and verification is skipped (the Table-1 "w/o security"
// baseline).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent_id.hpp"
#include "agent/location.hpp"
#include "util/bytes.hpp"
#include "util/serial.hpp"
#include "util/status.hpp"

namespace naplet::nsock {

enum class CtrlType : std::uint8_t {
  kConnect = 1,
  kConnectAck = 2,
  kConnectReject = 3,
  kSus = 4,
  kSusAck = 5,
  kAckWait = 6,
  kSusRes = 7,
  kSusResAck = 8,
  kCls = 9,
  kClsAck = 10,
  kReject = 11,  // unknown connection / bad MAC
  kHeartbeat = 12,  // fault-tolerance extension: liveness probe (the
                    // reliability layer's ACK is the liveness signal)
};

std::string_view to_string(CtrlType type) noexcept;

/// One control-channel message. Fields not used by a type stay empty/zero.
struct CtrlMsg {
  CtrlType type = CtrlType::kReject;
  std::uint64_t conn_id = 0;
  std::uint64_t epoch = 0;         // sender controller's incarnation epoch
                                   // (crash-recovery fencing; 0 = unfenced)
  std::uint64_t trace_id = 0;      // migration trace id (obs; 0 = untraced),
                                   // MAC-covered like the epoch
  std::uint64_t verifier = 0;      // client-chosen correlation id (CONNECT*)
  std::uint64_t sent_seq = 0;      // sender's data-frame high-water mark
  std::string client_agent;        // CONNECT
  std::string server_agent;        // CONNECT
  agent::NodeInfo node;            // sender's current service endpoints
  util::Bytes dh_public;           // CONNECT / CONNECT_ACK
  util::Bytes token;               // CONNECT: client's AuthToken encoding
  std::string reason;              // REJECT / CONNECT_REJECT
  util::Bytes mac;                 // HMAC tag (see mac_payload)

  [[nodiscard]] util::Bytes encode() const {
    return util::Archive::encode(*this);
  }
  static util::StatusOr<CtrlMsg> decode(util::ByteSpan data) {
    return util::Archive::decode<CtrlMsg>(data);
  }
  /// Bytes covered by the MAC: the encoding of the body.
  [[nodiscard]] util::Bytes mac_payload() const {
    return util::Archive::encode_body(*this);
  }

  /// The wire format: the body, then the MAC.
  void persist(util::Archive& ar) {
    persist_body(ar);
    ar.field(mac);
  }
  /// Every field but the MAC, in wire order.
  void persist_body(util::Archive& ar);
};

enum class HandoffType : std::uint8_t {
  kAttach = 1,      // complete connection setup (the client's ID message)
  kAttachOk = 2,
  kResume = 3,      // re-bind a suspended connection after migration
  kResumeOk = 4,
  kResumeWait = 5,  // receiver has a parked suspend; resume is delayed
  kError = 6,
};

std::string_view to_string(HandoffType type) noexcept;

/// One frame on a redirector handoff stream.
struct HandoffMsg {
  HandoffType type = HandoffType::kError;
  std::uint64_t conn_id = 0;
  std::uint64_t epoch = 0;      // sender controller's incarnation epoch
  std::uint64_t trace_id = 0;   // migration trace id (obs; MAC-covered)
  std::uint64_t verifier = 0;
  std::uint64_t sent_seq = 0;   // RESUME/RESUME_OK: sender's high-water mark
  std::uint64_t recv_seq = 0;   // RESUME/RESUME_OK: sender's highest frame
                                // RECEIVED — lets the peer replay frames the
                                // sender missed (fault-tolerance extension)
  std::string agent;            // requesting agent's id (MAC-covered) — the
                                // receiver matches it against the session's
                                // peer, which pins a handoff to the right
                                // endpoint even when both live on one node
  agent::NodeInfo node;         // RESUME: mover's new endpoints
  std::string reason;           // kError
  util::Bytes mac;

  [[nodiscard]] util::Bytes encode() const {
    return util::Archive::encode(*this);
  }
  static util::StatusOr<HandoffMsg> decode(util::ByteSpan data) {
    return util::Archive::decode<HandoffMsg>(data);
  }
  /// Bytes covered by the MAC: the encoding of the body.
  [[nodiscard]] util::Bytes mac_payload() const {
    return util::Archive::encode_body(*this);
  }

  /// The wire format: the body, then the MAC.
  void persist(util::Archive& ar) {
    persist_body(ar);
    ar.field(mac);
  }
  /// Every field but the MAC, in wire order.
  void persist_body(util::Archive& ar);
};

/// Compute the HMAC tag for a message's payload under `session_key`
/// (empty key -> empty tag, the no-security mode).
util::Bytes compute_mac(util::ByteSpan session_key, util::ByteSpan payload);

/// Verify; with an empty session key any tag is accepted (no-security mode).
bool verify_mac(util::ByteSpan session_key, util::ByteSpan payload,
                util::ByteSpan tag);

/// Data frames on the established data socket: u64 sequence number + body,
/// wrapped in a net::write_frame length prefix by the session layer.
struct DataFrame {
  std::uint64_t seq = 0;
  util::Bytes body;

  [[nodiscard]] util::Bytes encode() const;
  static util::StatusOr<DataFrame> decode(util::ByteSpan data);
};

}  // namespace naplet::nsock
