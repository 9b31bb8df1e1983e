#include "core/state.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace naplet::nsock {
namespace {

using S = ConnState;
using E = ConnEvent;

std::vector<S> all_states() {
  std::vector<S> out;
  for (int i = 0; i < kConnStateCount; ++i) {
    out.push_back(static_cast<S>(i));
  }
  return out;
}

std::vector<E> all_events() {
  std::vector<E> out;
  for (int i = 0; i < kConnEventCount; ++i) {
    out.push_back(static_cast<E>(i));
  }
  return out;
}

TEST(StateMachine, FourteenStatesAllNamed) {
  std::set<std::string_view> names;
  for (S s : all_states()) {
    const std::string_view name = to_string(s);
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 14u);  // paper Table 1
}

TEST(StateMachine, AllEventsNamed) {
  std::set<std::string_view> names;
  for (E e : all_events()) {
    EXPECT_NE(to_string(e), "?");
    names.insert(to_string(e));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kConnEventCount));
}

// --- The paper's nominal paths (Figure 3) ---

TEST(StateMachine, ClientOpenPath) {
  // CLOSED --app:connect--> CONNECT_SENT --recv ACK+ID--> ESTABLISHED
  EXPECT_EQ(transition(S::kClosed, E::kAppConnect), S::kConnectSent);
  EXPECT_EQ(transition(S::kConnectSent, E::kRecvConnectAck), S::kEstablished);
}

TEST(StateMachine, ServerOpenPath) {
  // CLOSED --listen--> LISTEN --recv CONNECT--> CONNECT_ACKED --recv ID-->
  // ESTABLISHED
  EXPECT_EQ(transition(S::kClosed, E::kAppListen), S::kListen);
  EXPECT_EQ(transition(S::kListen, E::kRecvConnect), S::kConnectAcked);
  EXPECT_EQ(transition(S::kConnectAcked, E::kRecvAttach), S::kEstablished);
}

TEST(StateMachine, ActiveSuspendPath) {
  EXPECT_EQ(transition(S::kEstablished, E::kAppSuspend), S::kSusSent);
  EXPECT_EQ(transition(S::kSusSent, E::kRecvSusAck), S::kSuspended);
}

TEST(StateMachine, PassiveSuspendPath) {
  EXPECT_EQ(transition(S::kEstablished, E::kRecvSus), S::kSusAcked);
  EXPECT_EQ(transition(S::kSusAcked, E::kExecSuspended), S::kSuspended);
}

TEST(StateMachine, ActiveResumePath) {
  EXPECT_EQ(transition(S::kSuspended, E::kAppResume), S::kResSent);
  EXPECT_EQ(transition(S::kResSent, E::kRecvResumeOk), S::kEstablished);
}

TEST(StateMachine, PassiveResumePath) {
  EXPECT_EQ(transition(S::kSuspended, E::kRecvResume), S::kResAcked);
  EXPECT_EQ(transition(S::kResAcked, E::kExecResumed), S::kEstablished);
}

TEST(StateMachine, ActiveClosePathFromEstablished) {
  EXPECT_EQ(transition(S::kEstablished, E::kAppClose), S::kCloseSent);
  EXPECT_EQ(transition(S::kCloseSent, E::kRecvClsAck), S::kClosed);
}

TEST(StateMachine, PassiveClosePath) {
  EXPECT_EQ(transition(S::kEstablished, E::kRecvCls), S::kCloseAcked);
  EXPECT_EQ(transition(S::kCloseAcked, E::kExecClosed), S::kClosed);
}

TEST(StateMachine, CloseFromSuspended) {
  // Paper §2.2: close is legal from ESTABLISHED or SUSPENDED.
  EXPECT_EQ(transition(S::kSuspended, E::kAppClose), S::kCloseSent);
  EXPECT_EQ(transition(S::kSuspended, E::kRecvCls), S::kCloseAcked);
}

// --- Concurrent-migration arcs (paper §3.1) ---

TEST(StateMachine, OverlappedLowPriorityPath) {
  // SUS_SENT --recv ACK_WAIT--> SUSPEND_WAIT --recv SUS_RES--> SUSPENDED
  EXPECT_EQ(transition(S::kSusSent, E::kRecvAckWait), S::kSuspendWait);
  EXPECT_EQ(transition(S::kSuspendWait, E::kRecvSusRes), S::kSuspended);
}

TEST(StateMachine, OverlappedCrossingSusHolds) {
  // Both sides in SUS_SENT when the peer's SUS arrives: state holds, the
  // action (ACK vs ACK_WAIT) is decided by priority outside the FSM.
  EXPECT_EQ(transition(S::kSusSent, E::kRecvSus), S::kSusSent);
}

TEST(StateMachine, NonOverlappedParkedSuspend) {
  // SUSPENDED --app:suspend--> SUSPEND_WAIT (parked);
  // peer's RESUME releases it (we answer RESUME_WAIT): -> SUSPENDED.
  EXPECT_EQ(transition(S::kSuspended, E::kAppSuspend), S::kSuspendWait);
  EXPECT_EQ(transition(S::kSuspendWait, E::kRecvResume), S::kSuspended);
}

TEST(StateMachine, ResumeWaitPath) {
  // RES_SENT --recv RESUME_WAIT--> RESUME_WAIT --recv RESUME--> RES_ACKED
  EXPECT_EQ(transition(S::kResSent, E::kRecvResumeWait), S::kResumeWait);
  EXPECT_EQ(transition(S::kResumeWait, E::kRecvResume), S::kResAcked);
}

TEST(StateMachine, ResumeGlareAccepted) {
  EXPECT_EQ(transition(S::kResSent, E::kRecvResume), S::kResAcked);
}

TEST(StateMachine, ParkedResumeSupersededByPeerSuspension) {
  // While we wait in RESUME_WAIT for the peer's reconnect, the peer may
  // start another migration round instead: its SUS converts our parked
  // resume into a passive suspension.
  EXPECT_EQ(transition(S::kResumeWait, E::kRecvSus), S::kSuspended);
  EXPECT_EQ(transition(S::kResumeWait, E::kTimeout), S::kSuspended);
}

// --- Robustness arcs ---

TEST(StateMachine, Timeouts) {
  EXPECT_EQ(transition(S::kConnectSent, E::kTimeout), S::kClosed);
  EXPECT_EQ(transition(S::kConnectAcked, E::kTimeout), S::kClosed);
  EXPECT_EQ(transition(S::kSusSent, E::kTimeout), S::kSuspended);
  EXPECT_EQ(transition(S::kResSent, E::kTimeout), S::kSuspended);
  EXPECT_EQ(transition(S::kCloseSent, E::kTimeout), S::kClosed);
}

TEST(StateMachine, DuplicateSusReAcked) {
  EXPECT_EQ(transition(S::kSuspended, E::kRecvSus), S::kSuspended);
}

TEST(StateMachine, CloseIdempotentFromClosed) {
  EXPECT_EQ(transition(S::kClosed, E::kAppClose), S::kClosed);
}

// --- Negative space: transitions the protocol must NOT allow ---

TEST(StateMachine, NoDataStateSkipping) {
  // Cannot resume what was never suspended.
  EXPECT_FALSE(transition(S::kEstablished, E::kAppResume).has_value());
  // Cannot suspend before establishment.
  EXPECT_FALSE(transition(S::kConnectSent, E::kAppSuspend).has_value());
  EXPECT_FALSE(transition(S::kClosed, E::kAppSuspend).has_value());
  // Cannot connect twice.
  EXPECT_FALSE(transition(S::kEstablished, E::kAppConnect).has_value());
  // Cannot re-listen while established.
  EXPECT_FALSE(transition(S::kEstablished, E::kAppListen).has_value());
  // A closed connection stays closed.
  EXPECT_FALSE(transition(S::kClosed, E::kRecvSus).has_value());
  EXPECT_FALSE(transition(S::kClosed, E::kAppResume).has_value());
}

TEST(StateMachine, EstablishedRequiresHandshake) {
  for (S s : all_states()) {
    for (E e : all_events()) {
      auto next = transition(s, e);
      if (!next || *next != S::kEstablished) continue;
      // Only these arcs may enter ESTABLISHED: the two connect handshakes,
      // the two resume completions, and the suspend rollback (an
      // unanswered SUS over a still-healthy stream returns the connection
      // to service).
      const bool legal =
          (s == S::kConnectSent && e == E::kRecvConnectAck) ||
          (s == S::kConnectAcked && e == E::kRecvAttach) ||
          (s == S::kResSent && e == E::kRecvResumeOk) ||
          (s == S::kResAcked && e == E::kExecResumed) ||
          (s == S::kSusSent && e == E::kSuspendAbort);
      EXPECT_TRUE(legal) << to_string(s) << " --" << to_string(e) << "-->";
    }
  }
}

TEST(StateMachine, ClosedIsAbsorbing) {
  // From CLOSED, the only exits are app listen/connect.
  for (E e : all_events()) {
    auto next = transition(S::kClosed, e);
    if (!next) continue;
    const bool legal = (e == E::kAppListen && *next == S::kListen) ||
                       (e == E::kAppConnect && *next == S::kConnectSent) ||
                       (e == E::kAppClose && *next == S::kClosed);
    EXPECT_TRUE(legal) << to_string(e);
  }
}

TEST(StateMachine, EveryLiveStateHasAnExit) {
  for (S s : all_states()) {
    if (s == S::kClosed) continue;
    bool has_exit = false;
    for (E e : all_events()) {
      auto next = transition(s, e);
      if (next && *next != s) {
        has_exit = true;
        break;
      }
    }
    EXPECT_TRUE(has_exit) << to_string(s);
  }
}

TEST(StateMachine, NoTransitionOutOfRangeStates) {
  // Defensive: every (state, event) pair either maps to a valid state or
  // to nullopt — never to something outside the enum.
  for (S s : all_states()) {
    for (E e : all_events()) {
      auto next = transition(s, e);
      if (next) {
        EXPECT_GE(static_cast<int>(*next), 0);
        EXPECT_LT(static_cast<int>(*next), kConnStateCount);
      }
    }
  }
}

// Property: along ANY event walk, applying only legal transitions, the
// machine stays within the 14 states, and the only way back to a
// transfer-capable state after suspension passes through a resume arc.
class FsmRandomWalk : public ::testing::TestWithParam<int> {};

TEST_P(FsmRandomWalk, StaysConsistent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  for (int run = 0; run < 200; ++run) {
    S state = S::kClosed;
    bool was_suspended = false;
    for (int step = 0; step < 60; ++step) {
      const E event = static_cast<E>(rng.next_below(kConnEventCount));
      auto next = transition(state, event);
      if (!next) continue;  // illegal in this state: rejected, no change
      // Entering ESTABLISHED after a suspension must use a resume arc.
      if (*next == S::kEstablished && was_suspended) {
        EXPECT_TRUE(event == E::kRecvResumeOk || event == E::kExecResumed)
            << to_string(state) << " --" << to_string(event) << "-->";
      }
      if (*next == S::kSuspended) was_suspended = true;
      if (*next == S::kEstablished || *next == S::kClosed) {
        was_suspended = false;
      }
      EXPECT_GE(static_cast<int>(*next), 0);
      EXPECT_LT(static_cast<int>(*next), kConnStateCount);
      state = *next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmRandomWalk, ::testing::Range(1, 9));

TEST(StateMachine, HelperPredicates) {
  EXPECT_TRUE(can_transfer(S::kEstablished));
  EXPECT_FALSE(can_transfer(S::kSuspended));
  EXPECT_FALSE(can_transfer(S::kSusSent));
  EXPECT_TRUE(is_live(S::kSuspended));
  EXPECT_TRUE(is_live(S::kEstablished));
  EXPECT_FALSE(is_live(S::kClosed));
  EXPECT_FALSE(is_live(S::kCloseSent));
  EXPECT_FALSE(is_live(S::kCloseAcked));
}

}  // namespace
}  // namespace naplet::nsock
