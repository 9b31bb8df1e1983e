#include "core/state.hpp"

namespace naplet::nsock {

std::string_view to_string(ConnState state) noexcept {
  switch (state) {
    case ConnState::kClosed: return "CLOSED";
    case ConnState::kListen: return "LISTEN";
    case ConnState::kConnectSent: return "CONNECT_SENT";
    case ConnState::kConnectAcked: return "CONNECT_ACKED";
    case ConnState::kEstablished: return "ESTABLISHED";
    case ConnState::kSusSent: return "SUS_SENT";
    case ConnState::kSusAcked: return "SUS_ACKED";
    case ConnState::kSuspendWait: return "SUSPEND_WAIT";
    case ConnState::kSuspended: return "SUSPENDED";
    case ConnState::kResSent: return "RES_SENT";
    case ConnState::kResAcked: return "RES_ACKED";
    case ConnState::kResumeWait: return "RESUME_WAIT";
    case ConnState::kCloseSent: return "CLOSE_SENT";
    case ConnState::kCloseAcked: return "CLOSE_ACKED";
  }
  return "?";
}

std::string_view to_string(ConnEvent event) noexcept {
  switch (event) {
    case ConnEvent::kAppListen: return "app:listen";
    case ConnEvent::kAppConnect: return "app:connect";
    case ConnEvent::kAppSuspend: return "app:suspend";
    case ConnEvent::kAppResume: return "app:resume";
    case ConnEvent::kAppClose: return "app:close";
    case ConnEvent::kRecvConnect: return "recv:CONNECT";
    case ConnEvent::kRecvConnectAck: return "recv:ACK+ID";
    case ConnEvent::kRecvAttach: return "recv:ID";
    case ConnEvent::kRecvSus: return "recv:SUS";
    case ConnEvent::kRecvSusAck: return "recv:SUS_ACK";
    case ConnEvent::kRecvAckWait: return "recv:ACK_WAIT";
    case ConnEvent::kRecvSusRes: return "recv:SUS_RES";
    case ConnEvent::kRecvResume: return "recv:RES";
    case ConnEvent::kRecvResumeOk: return "recv:RES_ACK";
    case ConnEvent::kRecvResumeWait: return "recv:RESUME_WAIT";
    case ConnEvent::kRecvCls: return "recv:CLS";
    case ConnEvent::kRecvClsAck: return "recv:CLS_ACK";
    case ConnEvent::kRecvReject: return "recv:REJECT";
    case ConnEvent::kExecSuspended: return "exec:suspended";
    case ConnEvent::kExecResumed: return "exec:resumed";
    case ConnEvent::kExecClosed: return "exec:closed";
    case ConnEvent::kTimeout: return "timeout";
    case ConnEvent::kSuspendAbort: return "abort:suspend";
  }
  return "?";
}

std::optional<ConnState> transition(ConnState state, ConnEvent event) noexcept {
  using S = ConnState;
  using E = ConnEvent;

  switch (state) {
    case S::kClosed:
      switch (event) {
        case E::kAppListen: return S::kListen;
        case E::kAppConnect: return S::kConnectSent;
        case E::kAppClose: return S::kClosed;  // idempotent
        default: return std::nullopt;
      }

    case S::kListen:
      switch (event) {
        case E::kRecvConnect: return S::kConnectAcked;
        case E::kAppClose: return S::kClosed;
        default: return std::nullopt;
      }

    case S::kConnectSent:
      switch (event) {
        case E::kRecvConnectAck: return S::kEstablished;
        case E::kRecvReject: return S::kClosed;
        case E::kTimeout: return S::kClosed;
        default: return std::nullopt;
      }

    case S::kConnectAcked:
      switch (event) {
        case E::kRecvAttach: return S::kEstablished;
        case E::kTimeout: return S::kClosed;
        default: return std::nullopt;
      }

    case S::kEstablished:
      switch (event) {
        case E::kAppSuspend: return S::kSusSent;
        case E::kRecvSus: return S::kSusAcked;
        case E::kAppClose: return S::kCloseSent;
        case E::kRecvCls: return S::kCloseAcked;
        default: return std::nullopt;
      }

    case S::kSusSent:
      switch (event) {
        case E::kRecvSusAck: return S::kSuspended;
        case E::kRecvAckWait: return S::kSuspendWait;
        // Overlapped concurrent migration: the peer's SUS crosses ours.
        // The state holds; the action (ACK vs ACK_WAIT) depends on priority.
        case E::kRecvSus: return S::kSusSent;
        case E::kTimeout: return S::kSuspended;  // fail-safe local suspend
        // Handshake died but the data stream is healthy: degrade back to
        // normal transfer rather than suspending against a silent peer.
        case E::kSuspendAbort: return S::kEstablished;
        default: return std::nullopt;
      }

    case S::kSusAcked:
      switch (event) {
        case E::kExecSuspended: return S::kSuspended;
        default: return std::nullopt;
      }

    case S::kSuspendWait:
      switch (event) {
        case E::kRecvSusRes: return S::kSuspended;
        // Non-overlapped case: the peer's RESUME releases our parked
        // suspend (we answer RESUME_WAIT) and our suspension completes.
        case E::kRecvResume: return S::kSuspended;
        default: return std::nullopt;
      }

    case S::kSuspended:
      switch (event) {
        case E::kAppResume: return S::kResSent;
        case E::kRecvResume: return S::kResAcked;
        // Multi-connection rule (paper §3.2): a local suspend on a
        // remotely-suspended connection parks until the peer's migration
        // completes. (The immediate-return high-priority case fires no
        // event at all.)
        case E::kAppSuspend: return S::kSuspendWait;
        case E::kRecvSus: return S::kSuspended;     // duplicate SUS: re-ACK
        case E::kAppClose: return S::kCloseSent;
        case E::kRecvCls: return S::kCloseAcked;
        case E::kRecvSusRes: return S::kSuspended;  // duplicate release
        default: return std::nullopt;
      }

    case S::kResSent:
      switch (event) {
        case E::kRecvResumeOk: return S::kEstablished;
        case E::kRecvResumeWait: return S::kResumeWait;
        // Resume glare: both sides reconnect at once; the lower-priority
        // side accepts the peer's RESUME instead of its own.
        case E::kRecvResume: return S::kResAcked;
        case E::kTimeout: return S::kSuspended;  // retryable
        default: return std::nullopt;
      }

    case S::kResAcked:
      switch (event) {
        case E::kExecResumed: return S::kEstablished;
        default: return std::nullopt;
      }

    case S::kResumeWait:
      switch (event) {
        case E::kRecvResume: return S::kResAcked;
        // The peer chose to suspend again instead of reconnecting (it may
        // have answered our resume with RESUME_WAIT and then begun another
        // migration round): its suspension supersedes our parked resume.
        case E::kRecvSus: return S::kSuspended;
        case E::kTimeout: return S::kSuspended;
        default: return std::nullopt;
      }

    case S::kCloseSent:
      switch (event) {
        case E::kRecvClsAck: return S::kClosed;
        case E::kTimeout: return S::kClosed;  // peer gone; close anyway
        default: return std::nullopt;
      }

    case S::kCloseAcked:
      switch (event) {
        case E::kExecClosed: return S::kClosed;
        default: return std::nullopt;
      }
  }
  return std::nullopt;
}

}  // namespace naplet::nsock
