// The per-layer ledger of a traced phase: turns span self times, counter
// deltas and direct layer timings into the per-layer metrics. Every
// workload reports every metric; a layer that does no work on a workload
// reports 0 there.
#pragma once

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {

struct LedgerInput {
  double ops = 0;     // the workload's unit operations in the traced phase
  double wall_s = 0;  // traced phase wall time
  Counters delta;     // read_counters() after minus before
  Tracer::LayerTimes spans;
  Samples probe_rtt_us;
  Samples probe_lag_us;
  std::size_t probes = 0;
  ProcCounters proc;  // after minus before (max_rss_bytes: after)

  bool security = false;
  DhTiming dh;             // measured when security is on
  double hmac_us = 0;      // measured when security is on
  double codec_us = 0;     // CtrlMsg encode + decode
  double ctrl_bytes = 0;   // encoded CtrlMsg size
  double record_us = 0;    // measured when durability is on

  double hops = 0;
  double replay_bytes = 0;     // buffered_bytes() before each export, summed
  double replayed_frames = 0;  // RecvResult::from_buffer after each hop
  double shard_max_over_mean = 0;

  // Session data-path counter deltas (stream).
  double msgs = 0;
  double copied_bytes = 0;
  double writes = 0;
  double reads = 0;
  double wakeups = 0;
  double coalesced = 0;
};

void fill_ledger(const LedgerInput& in, MetricSet& out);

}  // namespace perfbench
