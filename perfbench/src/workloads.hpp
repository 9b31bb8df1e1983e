// The three workloads. Each sets itself up several times (set-up time is
// the median), runs untimed warm-up operations, then measures for the
// requested seconds. With tracing on it measures an untraced half and a
// traced half on the same set-up and reports the per-layer ledger plus the
// tracing overhead.
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_churn(const Options& options);
Outcome run_lifecycle(const Options& options);
Outcome run_stream(const Options& options);

/// Adds the contract's end-to-end metrics for one measured phase: the rate
/// of the workload's unit op and the p50 / p90 latency of its headline op,
/// each a median over the phase's windows (see Timeline), and the process
/// CPU time spent per unit op.
void set_headline(MetricSet& e2e, double ops_per_s, std::size_t ops,
                  double p50_ms, double p90_ms, std::size_t samples,
                  double cpu_us_per_op);

/// trace_overhead.<metric> = traced / untraced - 1 for each headline metric.
void set_overhead(MetricSet& layers, const MetricSet& untraced,
                  const MetricSet& traced);

/// Main-thread companion to the workers of a timed phase: probes the bus
/// at a low rate (when `probe` is set) until `deadline_ns`.
class BusProbe;
void probe_until(BusProbe* probe, std::int64_t deadline_ns);

}  // namespace perfbench
