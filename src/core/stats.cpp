#include "core/stats.hpp"

#include <algorithm>
#include <sstream>

namespace naplet::nsock {

std::string ControllerStats::to_string() const {
  std::ostringstream out;
  out << "sessions=" << sessions;
  bool any = false;
  for (int i = 0; i < kConnStateCount; ++i) {
    if (by_state[static_cast<std::size_t>(i)] == 0) continue;
    out << (any ? "," : " [") << ::naplet::nsock::to_string(
                                      static_cast<ConnState>(i))
        << ":" << by_state[static_cast<std::size_t>(i)];
    any = true;
  }
  if (any) out << "]";
  if (!shard_sessions.empty()) {
    std::size_t max_shard = 0;
    for (std::size_t n : shard_sessions) max_shard = std::max(max_shard, n);
    out << " shards{n=" << shard_sessions.size() << ",max=" << max_shard
        << "}";
  }
  out << " listeners=" << listening_agents
      << " migrating=" << migrating_agents;

  // Generic snapshot rendering: every registered metric appears by name,
  // so a metric registered anywhere on the node cannot be silently
  // missing here (metrics_render_test pins this invariant).
  if (!metrics.counters.empty() || !metrics.gauges.empty() ||
      !metrics.histograms.empty()) {
    out << "\nmetrics:";
    for (const auto& c : metrics.counters) {
      out << " " << c.name << "=" << c.value;
    }
    for (const auto& g : metrics.gauges) {
      out << " " << g.name << "=" << g.value;
    }
    for (const auto& h : metrics.histograms) {
      out << " " << h.name << "{n=" << h.count;
      if (h.count != 0) {
        out << ",p50=" << h.percentile(50) << ",p95=" << h.percentile(95)
            << ",p99=" << h.percentile(99);
      }
      out << "," << h.unit << "}";
    }
  }
  return out.str();
}

}  // namespace naplet::nsock
