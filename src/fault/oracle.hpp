// Invariant oracles for fault-injection runs: the checks that decide
// whether the protocol actually survived a chaos schedule.
//
//  * DeliveryLedger — exactly-once/in-order delivery, checked on both
//    endpoints across migrations. Each directed stream records the bodies
//    it sent (in send order) and the (seq, body) pairs the receiving
//    application popped; check() requires the delivered sequence to be a
//    prefix of (or, when complete, equal to) the sent sequence with
//    strictly increasing frame seqs and matching content digests. A
//    duplicate replay, a reordering, a content corruption, or a lost frame
//    all fail loudly with the offending stream and position.
//
//  * check_fsm_trace — FSM-transition legality: every transition the
//    controller performed while the injector was armed is re-validated
//    against src/core/state.hpp's golden transition() table.
//
//  * await_established — the liveness watchdog: once faults cease, the
//    connection must re-reach ESTABLISHED within a bound.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/state.hpp"
#include "fault/fault.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace naplet::fault {

/// Thread-safe exactly-once/in-order delivery ledger. Streams are
/// caller-chosen ids for one direction of one connection (e.g. 2*conn for
/// client->server, 2*conn+1 for server->client); the ids survive
/// migrations because the harness, not the session object, owns them.
class DeliveryLedger {
 public:
  void record_sent(std::uint64_t stream, util::ByteSpan body);
  void record_delivered(std::uint64_t stream, std::uint64_t seq,
                        util::ByteSpan body);

  /// Validate every stream. With `require_complete`, each stream must have
  /// delivered exactly what was sent; otherwise a prefix suffices (a run
  /// that legitimately abandoned tail messages).
  [[nodiscard]] util::Status check(bool require_complete = true) const;

  [[nodiscard]] std::size_t delivered_count(std::uint64_t stream) const;
  [[nodiscard]] std::size_t sent_count(std::uint64_t stream) const;

 private:
  struct Delivered {
    std::uint64_t seq;
    std::uint64_t digest;
  };
  struct StreamLedger {
    std::vector<std::uint64_t> sent_digests;
    std::vector<Delivered> delivered;
  };

  mutable util::Mutex mu_{util::LockRank::kUnranked, "fault.ledger"};
  std::map<std::uint64_t, StreamLedger> streams_ NAPLET_GUARDED_BY(mu_);
};

/// Re-validate a recorded transition trace against the golden table:
/// transition(from, event) must exist and equal `to` for every record.
[[nodiscard]] util::Status check_fsm_trace(
    std::span<const TransitionRecord> trace);

/// Liveness watchdog: the session must reach ESTABLISHED within `bound`
/// (call after disarming the injector — "once faults cease").
[[nodiscard]] inline util::Status await_established(nsock::Session& session,
                                                    util::Duration bound) {
  auto state = session.wait_state(
      [](nsock::ConnState s) { return s == nsock::ConnState::kEstablished; },
      bound);
  if (state) return util::OkStatus();
  return util::Timeout(
      "liveness: conn " + std::to_string(session.conn_id()) + " [" +
      std::string(nsock::to_string(session.state())) +
      "] did not re-reach ESTABLISHED within " +
      std::to_string(
          std::chrono::duration_cast<std::chrono::milliseconds>(bound)
              .count()) +
      " ms after faults ceased");
}

}  // namespace naplet::fault
