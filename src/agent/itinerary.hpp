// Itinerary: a small, serializable travel plan for hop-oriented agents.
//
// The Naplet system the paper builds on provides structured itineraries;
// agents here otherwise hand-roll "vector<string> + index" state. This
// helper captures that pattern once: sequential routes, optional looping,
// and persistence across hops.
//
//   class Tourist : public agent::Agent {
//     agent::Itinerary route{{"alpha", "beta", "gamma"}};
//     void run(agent::AgentContext& ctx) override {
//       ...work at this stop...
//       if (!route.advance(ctx)) { /* journey complete */ }
//     }
//     void persist(util::Archive& ar) override { route.persist(ar); }
//   };
#pragma once

#include <string>
#include <vector>

#include "agent/agent.hpp"

namespace naplet::agent {

class Itinerary {
 public:
  Itinerary() = default;
  explicit Itinerary(std::vector<std::string> stops, bool loop = false,
                     std::uint32_t max_hops = 0)
      : stops_(std::move(stops)), loop_(loop), max_hops_(max_hops) {}

  /// Next destination without committing to it; empty when complete.
  [[nodiscard]] std::string peek() const {
    if (exhausted()) return {};
    return stops_[static_cast<std::size_t>(position_ % stops_.size())];
  }

  /// Request migration to the next stop. Returns false (and requests
  /// nothing) when the itinerary is complete.
  bool advance(AgentContext& ctx) {
    const std::string next = peek();
    if (next.empty()) return false;
    ++position_;
    ctx.migrate_to(next);
    return true;
  }

  /// True when no stops remain (for loops: when max_hops is exhausted).
  [[nodiscard]] bool exhausted() const {
    if (stops_.empty()) return true;
    if (loop_) return max_hops_ != 0 && position_ >= max_hops_;
    return position_ >= stops_.size();
  }

  [[nodiscard]] std::uint64_t hops_taken() const { return position_; }
  [[nodiscard]] const std::vector<std::string>& stops() const {
    return stops_;
  }

  void persist(util::Archive& ar) {
    ar.field(stops_);
    ar.field(loop_);
    ar.field(max_hops_);
    ar.field(position_);
  }

 private:
  std::vector<std::string> stops_;
  bool loop_ = false;
  std::uint32_t max_hops_ = 0;  // 0 = unbounded (finite routes only)
  std::uint64_t position_ = 0;
};

}  // namespace naplet::agent
