// Runtime lock-order (deadlock) validator: every util::Mutex may register
// with a rank from the single global hierarchy below, and a thread must
// acquire ranked locks in strictly increasing rank order. A violation
// aborts the process, printing the acquisition stack of the offending lock
// AND the stack at which the conflicting lock was taken — the runtime
// counterpart of the Clang thread-safety annotations (see
// thread_annotations.hpp) and of the paper's priority-based deadlock
// avoidance for overlapped concurrent migration.
//
// Checks are compiled in when NDEBUG is not defined (Debug / Sanitize /
// Tsan build types); the RelWithDebInfo tier-1 build pays nothing.
#pragma once

#include <cstddef>

#if !defined(NDEBUG)
#define NAPLET_LOCK_RANK_CHECKS 1
#else
#define NAPLET_LOCK_RANK_CHECKS 0
#endif

namespace naplet::util {

/// The global lock hierarchy, outermost (acquired first) to innermost.
/// Gaps are deliberate so future locks can slot in without renumbering.
/// Keep this table in sync with DESIGN.md "Concurrency invariants".
enum class LockRank : int {
  kUnranked = 0,  ///< opted out of ordering checks (leaf/local locks)

  // Control plane (outermost): the controller owns sessions, the agent
  // server owns residents, and both call down into session/queue locks.
  kController = 10,      ///< SocketController::mu_
  kControllerShard = 11, ///< SessionShardMap per-shard lock (nested inside
                         ///< kController when registration must be atomic
                         ///< with control state; never shard-under-shard —
                         ///< equal ranks are an inversion by design, which
                         ///< is what makes the sharding statically safe)
  kAgentServer = 12,     ///< AgentServer::mu_
  kPostOffice = 14,   ///< PostOffice::mu_ (pushes into mailbox queues)
  kBus = 18,          ///< ServerBus::mu_

  // Session data path, in send/recv acquisition order (see DESIGN.md):
  // send couples write -> write_io; close_stream nests write_io -> stream;
  // readers nest read -> stream -> buffer.
  kSessionWrite = 20,    ///< Session::write_mu_
  kSessionWriteIo = 22,  ///< Session::write_io_mu_
  kSessionRead = 24,     ///< Session::read_mu_
  kSessionStream = 26,   ///< Session::stream_mu_
  kSessionBuffer = 28,   ///< Session::buf_mu_
  kSessionNode = 32,     ///< Session::node_mu_

  // Shared leaf-ish primitives: held only across their own tiny critical
  // sections, but the controller/session layers do call into them.
  kStateCell = 40,    ///< WaitableCell (FSM state; logs under its lock)
  kRudpChannel = 44,  ///< net::ReliableChannel::mu_ (sender window state)
  kRudpRx = 46,       ///< net::ReliableChannel::rx_mu_ (receiver reorder
                      ///< buffer; never nests inside mu_)
  kQueue = 60,        ///< util::BlockingQueue
  kEvent = 64,        ///< util::Event
  kSimFabric = 68,    ///< net::SimNet::Impl::mu
  kSimPipe = 70,      ///< sim Pipe / datagram inbox locks

  // The fault injector is consulted from control-plane code that may hold
  // any of the locks above (e.g. the FSM audit hook fires under the state
  // cell), so its registry lock sits just above the leaves.
  kFaultInjector = 90,  ///< fault::Injector::mu_

  // Observability: metric registration and span recording happen from
  // protocol code that may hold any lock above (journal-commit spans fire
  // under the controller lock), so these sit with the fault injector.
  // Hot-path metric *recording* is lock-free and never takes either.
  kObsRegistry = 92,  ///< obs::Registry::mu_ (registration/snapshot only)
  kObsTrace = 94,     ///< obs::TraceSink::mu_

  kLogger = 100,  ///< the log sink lock: innermost, everyone may log
};

constexpr bool lock_rank_checks_enabled() {
  return NAPLET_LOCK_RANK_CHECKS != 0;
}

namespace lock_rank {

/// Validate that acquiring (`mu`, `rank`) respects the hierarchy given the
/// calling thread's currently held ranked locks, then record the
/// acquisition (with a captured stack trace). Aborts on violation. Call
/// BEFORE blocking on the underlying mutex so a would-be deadlock is
/// reported instead of hung.
void note_acquire(const void* mu, LockRank rank, const char* name);

/// Record the acquisition without order validation (for try_lock, which
/// cannot deadlock). Only call after the try succeeded.
void note_acquire_unchecked(const void* mu, LockRank rank, const char* name);

/// Remove `mu` from the calling thread's held set. Unlock order need not
/// mirror acquisition order (lock coupling releases the outer lock first).
void note_release(const void* mu);

/// Number of ranked locks the calling thread currently holds (tests).
std::size_t held_count();

/// Install a hook invoked (once, re-entrancy guarded) when a rank
/// violation is detected, just before the diagnostics are printed and the
/// process aborts. The observability layer registers its flight-recorder
/// dump here so every lock-order abort ships with recent execution
/// history. util cannot depend on obs, hence the inversion. nullptr
/// uninstalls. The hook must not assume any lock is acquirable.
void set_violation_hook(void (*hook)());

}  // namespace lock_rank
}  // namespace naplet::util
