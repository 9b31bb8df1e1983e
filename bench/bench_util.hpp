// Shared scaffolding for the paper-reproduction benches: realm setup over
// real TCP loopback, pseudo-agent registration, aligned table printing, and
// simple statistics.
//
// Every bench prints (a) the paper's reported numbers for the experiment it
// regenerates and (b) the numbers measured on this machine. Absolute values
// differ — the paper ran Java on 2004 Sun Blade 1000s over fast Ethernet;
// this is C++ on loopback — but the qualitative shape must match, and
// EXPERIMENTS.md records both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "net/sim.hpp"
#include "net/tcp.hpp"

namespace naplet::bench {

using namespace std::chrono_literals;

inline util::ByteSpan span(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

/// Mean of a sample (ms).
inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

inline double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  const double m = mean(xs);
  double sum = 0;
  for (double x : xs) sum += (x - m) * (x - m);
  return std::sqrt(sum / static_cast<double>(xs.size() - 1));
}

/// A realm of TCP-loopback nodes with pseudo-agents driven directly by the
/// bench thread (no agent threads; the protocol stack is identical).
class BenchRealm {
 public:
  explicit BenchRealm(int nodes, bool security = true,
                      crypto::DhGroup group = crypto::DhGroup::kModp2048) {
    realm_ = std::make_unique<nsock::Realm>();
    for (int i = 0; i < nodes; ++i) {
      nsock::NodeConfig config;
      config.controller.security = security;
      config.controller.dh_group = group;
      realm_->add_node("node" + std::to_string(i), config);
    }
    auto status = realm_->start();
    if (!status.ok()) {
      std::fprintf(stderr, "realm start failed: %s\n",
                   status.to_string().c_str());
      std::abort();
    }
  }

  ~BenchRealm() { realm_->stop(); }

  nsock::NapletRuntime& node(int i) {
    return realm_->node("node" + std::to_string(i));
  }
  nsock::SocketController& ctrl(int i) { return node(i).controller(); }
  agent::LocationService& locations() { return realm_->locations(); }

  agent::AgentId pseudo_agent(const std::string& name, int node_index) {
    agent::AgentId id(name);
    locations().register_agent(id, node(node_index).server().node_info());
    return id;
  }

  /// Full pseudo-migration of an agent's sessions between nodes; returns
  /// elapsed milliseconds. `agent_cost` stands in for shipping the agent's
  /// code and state (the paper's Ta-migrate, ~220 ms on its testbed),
  /// which the pseudo-agent harness otherwise skips.
  double migrate(const agent::AgentId& id, int from, int to,
                 util::Duration agent_cost = {}) {
    util::Stopwatch sw(util::RealClock::instance());
    auto st = agent::depart(
        locations(), ctrl(from), id, [&](util::ByteSpan sessions) {
          // Ta-migrate is not shipped: it is a sleep, taken while the
          // agent's connections are suspended.
          util::RealClock::instance().sleep_for(agent_cost);
          return agent::land(locations(), ctrl(to), id, sessions,
                             node(to).server().node_info());
        });
    if (st.ok()) st = ctrl(to).complete_migration(id);
    if (!st.ok()) {
      std::fprintf(stderr, "bench migrate failed: %s\n",
                   st.to_string().c_str());
    }
    return sw.elapsed_ms();
  }

 private:
  std::unique_ptr<nsock::Realm> realm_;
};

/// Fixed-width table printing.
inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : columns) std::printf("%18s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%18s", "---");
  std::printf("\n");
}

inline void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%18s", c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// True when NAPLET_BENCH_FAST is set: shrink sweeps for smoke runs.
inline bool fast_mode() {
  const char* env = std::getenv("NAPLET_BENCH_FAST");
  return env != nullptr && env[0] != '0';
}

/// True when `--json` was passed: benches additionally write their results
/// to a BENCH_<name>.json file so the perf trajectory is trackable across
/// PRs (EXPERIMENTS.md records the human-readable tables).
inline bool json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return true;
  }
  return false;
}

/// Minimal JSON object builder — enough structure for bench results
/// (numbers, strings, and pre-rendered nested values), no dependency.
class JsonObject {
 public:
  JsonObject& field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& field(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& field(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  /// Insert an already-rendered JSON value (nested object/array).
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!first_) body_ += ",";
    first_ = false;
    body_ += "\"" + key + "\":" + value;
    return *this;
  }

  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
  bool first_ = true;
};

inline std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i) out += ",";
    out += elements[i];
  }
  return out + "]";
}

inline void write_json_file(const std::string& path,
                            const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(content.c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace naplet::bench
