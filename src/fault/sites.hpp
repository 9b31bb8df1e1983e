// Canonical registry of fault-injection site names.
//
// Every string passed to fault::hit() / FaultInjector weaving points must
// appear here, and every entry here must be woven somewhere in src/.  The
// static-analysis gate (tools/analyze, registry pass) cross-checks this
// list against the actual call sites: an entry listed here but never woven
// is `fault-site-stale`, a woven site missing from this list is
// `fault-site-unknown`, and a repeated entry is `fault-site-duplicate`.
//
// Grammar: lowercase dotted segments, `[a-z0-9_]+(\.[a-z0-9_]+)+`.
// Control-plane sites follow `ctrl.<type>.<stage>` where <type> is the
// stable token from ctrl_site_token() (controller.cpp) and <stage> is
// `pre_send` or `on_recv`.
#pragma once

#include <cstddef>
#include <string_view>

namespace naplet::fault {

inline constexpr std::string_view kFaultSites[] = {
    // Transport (rudp.cpp weaving points).
    "rudp.send",
    "rudp.retransmit",
    "rudp.sack",
    "rudp.fast_retx",
    // Migration control plane.
    "redirector.handoff.accept",
    "session.resume.replay",
    // A SUS superseding a parked resume (controller_ops.cpp handle_sus):
    // between recording the peer's suspension and the SUSPENDED transition
    // that wakes the parked resume.
    "ctrl.sus.resume_wait",
    // A local suspend about to park in SUSPEND_WAIT (session.cpp
    // Session::park): the peer's release may land before the park.
    "session.suspend.park",
    // Crash durability (journal.cpp): between a record batch's write and
    // its fsync, the window where one commit point covers a whole agent.
    "recovery.journal.sync",
    // Control messages: ctrl.<type>.<stage>, woven generically through
    // ctrl_site() in controller.cpp for every CtrlType.
    "ctrl.connect.pre_send",
    "ctrl.connect.on_recv",
    "ctrl.connect_ack.pre_send",
    "ctrl.connect_ack.on_recv",
    "ctrl.connect_reject.pre_send",
    "ctrl.connect_reject.on_recv",
    "ctrl.suspend.pre_send",
    "ctrl.suspend.on_recv",
    "ctrl.suspend_ack.pre_send",
    "ctrl.suspend_ack.on_recv",
    "ctrl.ack_wait.pre_send",
    "ctrl.ack_wait.on_recv",
    "ctrl.sus_res.pre_send",
    "ctrl.sus_res.on_recv",
    "ctrl.sus_res_ack.pre_send",
    "ctrl.sus_res_ack.on_recv",
    "ctrl.close.pre_send",
    "ctrl.close.on_recv",
    "ctrl.close_ack.pre_send",
    "ctrl.close_ack.on_recv",
    "ctrl.reject.pre_send",
    "ctrl.reject.on_recv",
    "ctrl.heartbeat.pre_send",
    "ctrl.heartbeat.on_recv",
};

inline constexpr std::size_t kFaultSiteCount =
    sizeof(kFaultSites) / sizeof(kFaultSites[0]);

}  // namespace naplet::fault
