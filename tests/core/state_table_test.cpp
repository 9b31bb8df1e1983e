// Exhaustive (state, event) coverage of the connection FSM (paper Table 1 /
// Figure 3). Three layers:
//
//  * a golden table of every legal arc, checked cell-by-cell against
//    transition() over the full 14x23 grid — any added, removed, or
//    redirected arc fails here by name;
//  * a reachability sweep proving every state is reachable from kClosed
//    through legal arcs alone;
//  * Session::advance agreement: for every reachable state and every event,
//    advance() applies legal arcs and returns kProtocolError with the state
//    unchanged for illegal ones.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <queue>
#include <vector>

#include "core/session.hpp"
#include "core/state.hpp"

namespace naplet::nsock {
namespace {

using S = ConnState;
using E = ConnEvent;

std::vector<S> all_states() {
  std::vector<S> out;
  for (int i = 0; i < kConnStateCount; ++i) out.push_back(static_cast<S>(i));
  return out;
}

std::vector<E> all_events() {
  std::vector<E> out;
  for (int i = 0; i < kConnEventCount; ++i) out.push_back(static_cast<E>(i));
  return out;
}

/// Every legal arc, transcribed from the protocol description — not from
/// the implementation. 40 arcs; all other (state, event) pairs are illegal.
const std::map<std::pair<S, E>, S>& golden_table() {
  static const std::map<std::pair<S, E>, S> table = {
      // CLOSED
      {{S::kClosed, E::kAppListen}, S::kListen},
      {{S::kClosed, E::kAppConnect}, S::kConnectSent},
      {{S::kClosed, E::kAppClose}, S::kClosed},  // idempotent close
      // LISTEN
      {{S::kListen, E::kRecvConnect}, S::kConnectAcked},
      {{S::kListen, E::kAppClose}, S::kClosed},
      // CONNECT_SENT
      {{S::kConnectSent, E::kRecvConnectAck}, S::kEstablished},
      {{S::kConnectSent, E::kRecvReject}, S::kClosed},
      {{S::kConnectSent, E::kTimeout}, S::kClosed},
      // CONNECT_ACKED
      {{S::kConnectAcked, E::kRecvAttach}, S::kEstablished},
      {{S::kConnectAcked, E::kTimeout}, S::kClosed},
      // ESTABLISHED
      {{S::kEstablished, E::kAppSuspend}, S::kSusSent},
      {{S::kEstablished, E::kRecvSus}, S::kSusAcked},
      {{S::kEstablished, E::kAppClose}, S::kCloseSent},
      {{S::kEstablished, E::kRecvCls}, S::kCloseAcked},
      // SUS_SENT
      {{S::kSusSent, E::kRecvSusAck}, S::kSuspended},
      {{S::kSusSent, E::kRecvAckWait}, S::kSuspendWait},
      {{S::kSusSent, E::kRecvSus}, S::kSusSent},  // overlapped migration
      {{S::kSusSent, E::kTimeout}, S::kSuspended},
      {{S::kSusSent, E::kSuspendAbort}, S::kEstablished},  // rollback
      // SUS_ACKED
      {{S::kSusAcked, E::kExecSuspended}, S::kSuspended},
      // SUSPEND_WAIT
      {{S::kSuspendWait, E::kRecvSusRes}, S::kSuspended},
      {{S::kSuspendWait, E::kRecvResume}, S::kSuspended},
      // SUSPENDED
      {{S::kSuspended, E::kAppResume}, S::kResSent},
      {{S::kSuspended, E::kRecvResume}, S::kResAcked},
      {{S::kSuspended, E::kAppSuspend}, S::kSuspendWait},  // §3.2 park
      {{S::kSuspended, E::kRecvSus}, S::kSuspended},       // duplicate SUS
      {{S::kSuspended, E::kAppClose}, S::kCloseSent},
      {{S::kSuspended, E::kRecvCls}, S::kCloseAcked},
      {{S::kSuspended, E::kRecvSusRes}, S::kSuspended},  // duplicate release
      // RES_SENT
      {{S::kResSent, E::kRecvResumeOk}, S::kEstablished},
      {{S::kResSent, E::kRecvResumeWait}, S::kResumeWait},
      {{S::kResSent, E::kRecvResume}, S::kResAcked},  // resume glare
      {{S::kResSent, E::kTimeout}, S::kSuspended},
      // RES_ACKED
      {{S::kResAcked, E::kExecResumed}, S::kEstablished},
      // RESUME_WAIT
      {{S::kResumeWait, E::kRecvResume}, S::kResAcked},
      {{S::kResumeWait, E::kRecvSus}, S::kSuspended},
      {{S::kResumeWait, E::kTimeout}, S::kSuspended},
      // CLOSE_SENT
      {{S::kCloseSent, E::kRecvClsAck}, S::kClosed},
      {{S::kCloseSent, E::kTimeout}, S::kClosed},
      // CLOSE_ACKED
      {{S::kCloseAcked, E::kExecClosed}, S::kClosed},
  };
  return table;
}

TEST(StateTable, EveryCellMatchesGoldenTable) {
  const auto& golden = golden_table();
  ASSERT_EQ(golden.size(), 40u);
  int legal = 0;
  for (S s : all_states()) {
    for (E e : all_events()) {
      const std::optional<S> got = transition(s, e);
      const auto it = golden.find({s, e});
      if (it == golden.end()) {
        EXPECT_FALSE(got.has_value())
            << to_string(s) << " on " << to_string(e)
            << " should be illegal but transitions to "
            << (got ? to_string(*got) : "?");
      } else {
        ASSERT_TRUE(got.has_value())
            << to_string(s) << " on " << to_string(e) << " should be legal";
        EXPECT_EQ(*got, it->second)
            << to_string(s) << " on " << to_string(e) << " goes to "
            << to_string(*got) << ", expected " << to_string(it->second);
        ++legal;
      }
    }
  }
  EXPECT_EQ(legal, 40);
}

/// Shortest legal event path from kClosed to each state.
std::map<S, std::vector<E>> reach_paths() {
  std::map<S, std::vector<E>> paths;
  paths[S::kClosed] = {};
  std::queue<S> frontier;
  frontier.push(S::kClosed);
  while (!frontier.empty()) {
    const S s = frontier.front();
    frontier.pop();
    for (E e : all_events()) {
      const auto next = transition(s, e);
      if (!next || paths.contains(*next)) continue;
      auto path = paths[s];
      path.push_back(e);
      paths[*next] = std::move(path);
      frontier.push(*next);
    }
  }
  return paths;
}

TEST(StateTable, EveryStateReachableFromClosed) {
  const auto paths = reach_paths();
  for (S s : all_states()) {
    EXPECT_TRUE(paths.contains(s)) << to_string(s) << " is unreachable";
  }
}

TEST(StateTable, SessionAdvanceAgreesOnEveryCell) {
  const auto paths = reach_paths();
  for (S s : all_states()) {
    ASSERT_TRUE(paths.contains(s));
    for (E e : all_events()) {
      // Fresh session driven to `s` along a legal path, then hit with `e`.
      Session session(1, 1, true, agent::AgentId("a"), agent::AgentId("b"));
      for (E step : paths.at(s)) {
        ASSERT_TRUE(session.advance(step).ok())
            << "setup path broke at " << to_string(step);
      }
      ASSERT_EQ(session.state(), s);

      const auto expected = transition(s, e);
      const util::Status st = session.advance(e);
      if (expected) {
        EXPECT_TRUE(st.ok()) << to_string(s) << " on " << to_string(e) << ": "
                             << st.to_string();
        EXPECT_EQ(session.state(), *expected);
      } else {
        EXPECT_EQ(st.code(), util::StatusCode::kProtocolError)
            << to_string(s) << " on " << to_string(e);
        EXPECT_EQ(session.state(), s) << "illegal event mutated the state";
      }
    }
  }
}

}  // namespace
}  // namespace naplet::nsock
