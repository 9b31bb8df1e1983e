#include "ledger.hpp"

#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

namespace {

double span_mean_us(const Tracer::LayerTimes& spans, const char* name) {
  const auto it = spans.dur_us.find(name);
  return it == spans.dur_us.end() ? 0.0 : it->second.mean();
}

double self_ns(const Tracer::LayerTimes& spans, const char* layer) {
  const auto it = spans.self_ns.find(layer);
  return it == spans.self_ns.end() ? 0.0 : it->second;
}

}  // namespace

void fill_ledger(const LedgerInput& in, MetricSet& out) {
  const Counters& d = in.delta;
  const double ops = in.ops;

  // Control traffic the workload caused: every bus send except the probes.
  const double probe_rtt_sum = in.probe_rtt_us.sum();
  const double ctrl_msgs =
      std::max(0.0, d.get("rudp.sent") - static_cast<double>(in.probes));
  const double rtt_sum =
      std::max(0.0, d.get("rudp_rtt_us.sum") - probe_rtt_sum);
  const double rtt_count = std::max(
      0.0, d.get("rudp_rtt_us.count") - static_cast<double>(in.probes));
  const double connects = d.get("nsock_connect_total_us.count");
  const double handoffs = d.get("nsock_handoff_time_us.count");

  // ---- crypto ----
  const double dh_pair_us = in.dh.keygen_us + in.dh.session_key_us;
  // The client's key-exchange phase is one generate + one session_key;
  // the server mirrors it, so a connect runs 4x (client phase / pair).
  const double dh_ops_per_connect =
      in.security && connects > 0 && dh_pair_us > 0
          ? 2.0 * d.mean("nsock_connect_key_exchange_us") / dh_pair_us * 2.0
          : 0.0;
  // One MAC computed and one verified per control message and per
  // handoff frame (request + reply for each resume and each attach).
  const double hmacs =
      in.security ? 2.0 * (ctrl_msgs + 2.0 * (handoffs + connects)) : 0.0;
  const double crypto_us = connects * dh_ops_per_connect * dh_pair_us / 2.0 +
                           hmacs * (in.security ? in.hmac_us : 0.0);
  const double connect_span_us = span_mean_us(in.spans, "core.controller.connect");
  out.set("crypto.dh_keygen_us", in.security ? in.dh.keygen_us : 0, "us");
  out.set("crypto.dh_session_key_us", in.security ? in.dh.session_key_us : 0,
          "us");
  out.set("crypto.dh_ops_per_connect", dh_ops_per_connect, "count");
  out.set("crypto.hmac_us", in.security ? in.hmac_us : 0, "us");
  out.set("crypto.hmacs_per_hop", ratio(hmacs, in.hops), "count");
  out.set("crypto.share_of_connect",
          ratio(dh_ops_per_connect * dh_pair_us / 2.0, connect_span_us),
          "ratio");

  // ---- core.wire ----
  out.set("core.wire.ctrl_codec_us", in.codec_us, "us");
  out.set("core.wire.ctrl_bytes", in.ctrl_bytes, "bytes");
  out.set("core.wire.ctrl_msgs_per_op", ratio(ctrl_msgs, ops), "count");

  // ---- net.rudp ----
  out.set("net.rudp.sends_per_op", ratio(ctrl_msgs, ops), "count");
  out.set("net.rudp.send_ack_us", ratio(rtt_sum, rtt_count), "us");
  out.set("net.rudp.busy_ms", rtt_sum / 1000.0, "ms");
  out.set("net.rudp.busy_share", ratio(rtt_sum / 1e6, in.wall_s), "ratio");
  out.set("net.rudp.retx_ratio", ratio(d.get("rudp.retx"), d.get("rudp.sent")),
          "ratio");
  out.set("net.rudp.dups_dropped", d.get("rudp.dups"), "count");

  // ---- agent.bus ----
  const double rtt_p50 = in.probe_rtt_us.median();
  const double lag_p50 = in.probe_lag_us.median();
  out.set("agent.bus.probe_rtt_us", rtt_p50, "us", in.probe_rtt_us.size());
  out.set("agent.bus.dispatch_lag_us", lag_p50, "us", in.probe_lag_us.size());

  // ---- core.controller ----
  static const std::pair<const char*, const char*> kCalls[] = {
      {"core.controller.suspend_us", "core.controller.suspend"},
      {"core.controller.resume_us", "core.controller.resume"},
      {"core.controller.connect_us", "core.controller.connect"},
      {"core.controller.close_us", "core.controller.close"},
      {"core.controller.prepare_us", "core.controller.prepare_migration"},
      {"core.controller.export_us", "core.controller.export_sessions"},
      {"core.controller.import_us", "core.controller.import_sessions"},
      {"core.controller.complete_us", "core.controller.complete_migration"},
  };
  for (const auto& [metric, span] : kCalls) {
    out.set(metric, span_mean_us(in.spans, span), "us");
  }
  out.set("core.controller.drain_us", d.mean("nsock_drain_time_us"), "us");
  static const std::pair<const char*, const char*> kPhases[] = {
      {"core.controller.connect_management_us", "nsock_connect_management_us"},
      {"core.controller.connect_security_us", "nsock_connect_security_us"},
      {"core.controller.connect_key_exchange_us",
       "nsock_connect_key_exchange_us"},
      {"core.controller.connect_handshake_us", "nsock_connect_handshake_us"},
      {"core.controller.connect_open_socket_us",
       "nsock_connect_open_socket_us"},
  };
  for (const auto& [metric, hist] : kPhases) out.set(metric, d.mean(hist), "us");
  out.set("core.controller.shard_max_over_mean", in.shard_max_over_mean,
          "ratio");

  // ---- core.redirector ----
  out.set("core.redirector.handoff_us", d.mean("nsock_handoff_time_us"), "us");

  // ---- core.session ----
  out.set("core.session.send_us", span_mean_us(in.spans, "core.session.send"),
          "us");
  out.set("core.session.recv_us", span_mean_us(in.spans, "core.session.recv"),
          "us");
  out.set("core.session.copied_bytes_per_msg", ratio(in.copied_bytes, in.msgs),
          "bytes");
  out.set("core.session.writes_per_msg", ratio(in.writes, in.msgs), "count");
  out.set("core.session.reads_per_msg", ratio(in.reads, in.msgs), "count");
  out.set("core.session.wakeups_per_msg", ratio(in.wakeups, in.msgs), "count");
  out.set("core.session.coalesced_per_read", ratio(in.coalesced, in.reads),
          "count");
  out.set("core.session.replay_bytes_per_hop", ratio(in.replay_bytes, in.hops),
          "bytes");
  out.set("core.session.replayed_frames_per_hop",
          ratio(in.replayed_frames, in.hops), "count");

  // ---- recovery ----
  const double records = d.get("journal.records");
  out.set("recovery.records_per_hop", ratio(records, in.hops), "count");
  out.set("recovery.compactions", d.get("journal.compactions"), "count");
  out.set("recovery.record_us", in.record_us, "us");

  // ---- proc ----
  out.set("proc.cpu_s_per_op", ratio(in.proc.cpu_s, ops), "s");
  out.set("proc.cpu_util",
          ratio(in.proc.cpu_s, in.wall_s * static_cast<double>(nproc())),
          "ratio");
  out.set("proc.ctx_switches_per_op",
          ratio(static_cast<double>(in.proc.ctx_switches), ops), "count");
  out.set("proc.rss_bytes", static_cast<double>(in.proc.max_rss_bytes),
          "bytes");

  // ---- self time (spans) and the ledger (estimates) ----
  // Self time comes from the benchmark's spans: the op wrapper ("bench"),
  // and the library calls it makes. No spans exist inside the library yet,
  // so the layers below the calls are estimated as count x unit cost (or
  // exact histogram sums) and the residual is the library time none of
  // them explains.
  const double root_ns = in.spans.root_ns;
  const double lib_ns = self_ns(in.spans, "core.controller") +
                        self_ns(in.spans, "core.session");
  out.set("self.bench_share", ratio(self_ns(in.spans, "bench"), root_ns),
          "ratio");
  out.set("self.core.controller_share",
          ratio(self_ns(in.spans, "core.controller"), root_ns), "ratio");
  out.set("self.core.session_share",
          ratio(self_ns(in.spans, "core.session"), root_ns), "ratio");
  out.set("ledger.op_us", ratio(root_ns / 1000.0, ops), "us");

  const double lib_us = lib_ns / 1000.0;
  const double wire_us = ctrl_msgs * in.codec_us;
  const double bus_us = ctrl_msgs * std::max(0.0, lag_p50 - rtt_p50 / 2.0);
  const double redirector_us = d.get("nsock_handoff_time_us.sum");
  const double drain_us = d.get("nsock_drain_time_us.sum");
  const double recovery_us = records * in.record_us;
  const std::pair<const char*, double> kEstimates[] = {
      {"ledger.crypto_share", crypto_us},
      {"ledger.core.wire_share", wire_us},
      {"ledger.net.rudp_share", rtt_sum},
      {"ledger.agent.bus_share", bus_us},
      {"ledger.core.redirector_share", redirector_us},
      {"ledger.core.session_drain_share", drain_us},
      {"ledger.recovery_share", recovery_us},
  };
  double explained = 0;
  for (const auto& [metric, us] : kEstimates) {
    out.set(metric, ratio(us, lib_us), "ratio");
    explained += us;
  }
  out.set("ledger.residual_share", lib_us > 0 ? 1.0 - explained / lib_us : 0,
          "ratio");
}

void set_headline(MetricSet& e2e, double ops_per_s, std::size_t ops,
                  double p50_ms, double p90_ms, std::size_t samples,
                  double cpu_us_per_op) {
  e2e.set("ops_per_s", ops_per_s, "1/s", ops);
  e2e.set("op_ms_p50", p50_ms, "ms", samples);
  e2e.set("op_ms_p90", p90_ms, "ms", samples);
  e2e.set("cpu_us_per_op", cpu_us_per_op, "us", ops);
}

void set_overhead(MetricSet& layers, const MetricSet& untraced,
                  const MetricSet& traced) {
  for (const char* name :
       {"ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_us_per_op"}) {
    layers.set(std::string("trace_overhead.") + name,
               rel_change(untraced.value(name), traced.value(name)), "ratio");
  }
  // The untraced half's wall-clock figures, recorded without a bound.
  for (const char* name : {"ops_per_s", "op_ms_p50", "op_ms_p90"}) {
    const Metric* m = untraced.find(name);
    layers.set(std::string("wall.") + name, m != nullptr ? m->value : 0,
               m != nullptr ? m->unit : "");
  }
}

}  // namespace perfbench
