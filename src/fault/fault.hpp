// Deterministic fault injection for the NapletSocket protocol.
//
// The protocol code is woven with named injection sites (fault points) at
// the places the paper's correctness argument actually depends on: the
// control-channel send/receive paths (a SUS_ACK lost mid-handshake), the
// rudp retransmission loop, the redirector's handoff accept (a redirector
// dying mid-resume), and the resume replay of a migrated session's buffered
// frames. A FaultPlan is a *scripted schedule* — each rule names a site and
// fires on an exact hit count or at a fault-clock time, never on a
// probability — so every failure a chaos run finds replays bit-for-bit from
// the seed that generated the plan.
//
// Plan grammar (one rule; rules joined by ';'):
//
//   <site>@<trigger>:<action>[:<delay_ms>]
//   trigger := '#'<hit>['x'<count>]     fire on hits [hit, hit+count)
//            | 't'<ms>['x'<count>]      fire on the first <count> hits at or
//                                       after fault-clock time <ms>
//   action  := drop | delay | dup | error | kill | flip
//
//   e.g.  ctrl.suspend_ack.pre_send@#1:drop
//         rudp.retransmit@#2x3:delay:40
//         redirector.handoff.accept@#1:kill
//         session.resume.replay@#1:dup        (deliberate exactly-once
//                                              regression; oracle bait)
//
// Zero-cost when unarmed: every site is guarded by a single relaxed atomic
// load (fault::armed()); no strings are built and no locks are taken until
// a plan is armed. The data path (Session::send/recv) carries no sites at
// all, so perfbench's `stream` workload is unaffected either way.
//
// The fault clock defaults to wall milliseconds since arm(); the DES engine
// can bind virtual time instead (sim::Simulator::bind_fault_clock), which is
// what makes 't'-triggered rules DES-time triggers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::fault {

enum class Action : std::uint8_t {
  kNone = 0,   ///< no fault; proceed normally
  kDrop,       ///< the operation silently does not happen
  kDelay,      ///< sleep delay_ms at the site, then proceed
  kDuplicate,  ///< perform the operation twice (site-defined meaning)
  kError,      ///< the operation fails with a Status error
  kKill,       ///< hard-kill the component at the site (site-defined)
  kCorrupt,    ///< flip a bit in the site's payload ("flip"; wire sites)
};

[[nodiscard]] std::string_view to_string(Action action) noexcept;

/// What a fault point should do for the current hit. kDelay has already
/// been applied (the injector sleeps before returning); sites only need to
/// implement drop/dup/error/kill.
struct Decision {
  Action action = Action::kNone;
  std::uint32_t delay_ms = 0;

  explicit operator bool() const noexcept { return action != Action::kNone; }
};

/// One scripted rule. Exactly one trigger is active: hit-count keyed
/// (at_ms < 0) or fault-clock keyed (at_ms >= 0).
struct Rule {
  std::string site;
  std::uint64_t hit = 1;    ///< 1-based hit index of the first affected hit
  std::uint64_t count = 1;  ///< consecutive hits affected
  double at_ms = -1.0;      ///< >= 0: fire on hits at/after this clock time
  Action action = Action::kDrop;
  std::uint32_t delay_ms = 0;  ///< kDelay only

  [[nodiscard]] std::string to_string() const;
  static util::StatusOr<Rule> parse(std::string_view text);
};

/// A seeded, scripted fault schedule. `seed` records provenance (the chaos
/// seed that generated the plan) and does not affect matching.
struct Plan {
  std::uint64_t seed = 0;
  std::vector<Rule> rules;

  [[nodiscard]] std::string to_string() const;  // rules joined by ';'
  static util::StatusOr<Plan> parse(std::string_view text);
};

/// One performed FSM transition, recorded by Session::advance while armed.
/// Raw uint8s (not core enums) keep this library free of a core dependency;
/// the oracle layer re-types them against the golden table.
struct TransitionRecord {
  std::uint64_t conn_id = 0;
  bool is_client = false;
  std::uint8_t from = 0;
  std::uint8_t event = 0;
  std::uint8_t to = 0;
};

// The unarmed fast path: one relaxed atomic load, shared by every site.
inline std::atomic<bool> g_armed{false};

[[nodiscard]] inline bool armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

/// Process-global fault registry. Arm/disarm bracket one experiment; hit
/// counters, recorded hit times, and the FSM trace all reset on arm().
class Injector {
 public:
  static Injector& instance();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Install `plan` and start counting hits. An empty plan is valid and
  /// useful: every site records (count + fault-clock time) with no faults —
  /// the observation mode the rudp backoff tests use.
  void arm(Plan plan);
  void disarm();

  /// Consult the plan for this hit of `site`. Records the hit, applies any
  /// kDelay inline (sleeping outside the registry lock), and returns the
  /// decision. Prefer the free fault::hit(), which short-circuits unarmed.
  Decision hit(std::string_view site);

  void observe_transition(const TransitionRecord& record);

  // Observability since the last arm().
  [[nodiscard]] std::uint64_t hit_count(std::string_view site) const;
  [[nodiscard]] std::vector<double> hit_times_ms(std::string_view site) const;
  [[nodiscard]] std::vector<TransitionRecord> transitions() const;
  [[nodiscard]] Plan plan() const;

  /// Replace the fault clock (nullptr restores wall-ms-since-arm). The DES
  /// engine binds its virtual now() here so 't' rules key on DES time.
  void set_time_source(std::function<double()> now_ms);
  [[nodiscard]] double now_ms() const;

 private:
  Injector() = default;

  struct SiteStats {
    std::uint64_t hits = 0;
    std::vector<double> times_ms;
  };

  mutable util::Mutex mu_{util::LockRank::kFaultInjector, "fault.injector"};
  Plan plan_ NAPLET_GUARDED_BY(mu_);
  std::vector<std::uint64_t> rule_fired_ NAPLET_GUARDED_BY(mu_);
  std::map<std::string, SiteStats, std::less<>> sites_ NAPLET_GUARDED_BY(mu_);
  std::vector<TransitionRecord> trace_ NAPLET_GUARDED_BY(mu_);
  std::function<double()> clock_ NAPLET_GUARDED_BY(mu_);
  std::int64_t arm_t0_us_ NAPLET_GUARDED_BY(mu_) = 0;
};

/// The fault point: zero-cost no-op when no plan is armed.
[[nodiscard]] inline Decision hit(std::string_view site) {
  if (!armed()) return {};
  return Injector::instance().hit(site);
}

/// FSM audit hook (see TransitionRecord). No-op when unarmed.
inline void observe_transition(std::uint64_t conn_id, bool is_client,
                               std::uint8_t from, std::uint8_t event,
                               std::uint8_t to) {
  if (!armed()) return;
  Injector::instance().observe_transition(
      TransitionRecord{conn_id, is_client, from, event, to});
}

}  // namespace naplet::fault
