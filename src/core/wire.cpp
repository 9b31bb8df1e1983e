#include "core/wire.hpp"

#include "crypto/hmac.hpp"

namespace naplet::nsock {

std::string_view to_string(CtrlType type) noexcept {
  switch (type) {
    case CtrlType::kConnect: return "CONNECT";
    case CtrlType::kConnectAck: return "CONNECT_ACK";
    case CtrlType::kConnectReject: return "CONNECT_REJECT";
    case CtrlType::kSus: return "SUS";
    case CtrlType::kSusAck: return "SUS_ACK";
    case CtrlType::kAckWait: return "ACK_WAIT";
    case CtrlType::kSusRes: return "SUS_RES";
    case CtrlType::kSusResAck: return "SUS_RES_ACK";
    case CtrlType::kCls: return "CLS";
    case CtrlType::kClsAck: return "CLS_ACK";
    case CtrlType::kReject: return "REJECT";
    case CtrlType::kHeartbeat: return "HEARTBEAT";
  }
  return "?";
}

std::string_view to_string(HandoffType type) noexcept {
  switch (type) {
    case HandoffType::kAttach: return "ATTACH";
    case HandoffType::kAttachOk: return "ATTACH_OK";
    case HandoffType::kResume: return "RESUME";
    case HandoffType::kResumeOk: return "RESUME_OK";
    case HandoffType::kResumeWait: return "RESUME_WAIT";
    case HandoffType::kError: return "ERROR";
  }
  return "?";
}

void CtrlMsg::persist_body(util::Archive& ar) {
  ar.field(type);
  if (type < CtrlType::kConnect || type > CtrlType::kHeartbeat) {
    ar.fail("bad ctrl type " + std::to_string(static_cast<int>(type)));
  }
  ar.field(conn_id);
  ar.field(epoch);
  ar.field(trace_id);
  ar.field(verifier);
  ar.field(sent_seq);
  ar.field(client_agent);
  ar.field(server_agent);
  ar.field(node);
  ar.field(dh_public);
  ar.field(token);
  ar.field(reason);
}

void HandoffMsg::persist_body(util::Archive& ar) {
  ar.field(type);
  if (type < HandoffType::kAttach || type > HandoffType::kError) {
    ar.fail("bad handoff type " + std::to_string(static_cast<int>(type)));
  }
  ar.field(conn_id);
  ar.field(epoch);
  ar.field(trace_id);
  ar.field(verifier);
  ar.field(sent_seq);
  ar.field(recv_seq);
  ar.field(agent);
  ar.field(node);
  ar.field(reason);
}

util::Bytes compute_mac(util::ByteSpan session_key, util::ByteSpan payload) {
  if (session_key.empty()) return {};
  const crypto::Sha256Digest tag = crypto::hmac_sha256(session_key, payload);
  return util::Bytes(tag.begin(), tag.end());
}

bool verify_mac(util::ByteSpan session_key, util::ByteSpan payload,
                util::ByteSpan tag) {
  if (session_key.empty()) return true;  // security disabled
  return crypto::hmac_sha256_verify(session_key, payload, tag);
}

util::Bytes DataFrame::encode() const {
  util::BytesWriter w(body.size() + 8);
  w.u64(seq);
  w.raw(util::ByteSpan(body.data(), body.size()));
  return std::move(w).take();
}

util::StatusOr<DataFrame> DataFrame::decode(util::ByteSpan data) {
  util::BytesReader r(data);
  auto seq = r.u64();
  if (!seq.ok()) return seq.status();
  auto body = r.raw(r.remaining());
  if (!body.ok()) return body.status();
  return DataFrame{*seq, std::move(*body)};
}

}  // namespace naplet::nsock
