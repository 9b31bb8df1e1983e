// End-to-end coverage of the chaos harness: generated schedules inside the
// survivable envelope must pass, the same seed must reproduce bit-for-bit,
// and the deliberately planted exactly-once regression must be caught by
// the delivery ledger and delta-debugged back to the single planted rule.
#include "fault/chaos.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fault/fault.hpp"

namespace naplet::fault {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { Injector::instance().disarm(); }
};

TEST_F(ChaosTest, GenerateCaseIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 7331ull}) {
    const ChaosCase a = generate_case(seed, /*light=*/true);
    const ChaosCase b = generate_case(seed, /*light=*/true);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.plan.to_string(), b.plan.to_string());
    EXPECT_EQ(a.forward_msgs, b.forward_msgs);
    EXPECT_FALSE(a.plan.rules.empty());
  }
}

TEST_F(ChaosTest, SeedToCaseMappingIsPinned) {
  // Golden (seed -> case) pairs. A failure report is only a reproduction
  // recipe while every seed keeps mapping to the same case, so a change
  // that reorders the generator's RNG draws must fail here, not pass the
  // same-build comparison above.
  const struct {
    std::uint64_t seed;
    Scenario scenario;
    const char* plan;
  } golden[] = {
      {42, Scenario::kDoubleSequential,
       "rudp.retransmit@#1:delay:5;ctrl.suspend_ack.on_recv@#1:delay:10"},
      {43, Scenario::kDoubleSequential,
       "rudp.send@#8x2:drop;rudp.send@#1:drop"},
      {46, Scenario::kSingleMigration,
       "rudp.send@#5:flip;rudp.sack@#1x2:drop"},
      {48, Scenario::kDoubleOverlapped,
       "rudp.send@#2:flip;ctrl.suspend_ack.pre_send@#1:delay:5"},
      {52, Scenario::kDoubleOverlapped, "ctrl.sus_res.pre_send@#1:dup"},
      {60, Scenario::kSingleMigration,
       "ctrl.suspend.on_recv@#2:delay:27;rudp.retransmit@#2x2:flip"},
      {64, Scenario::kDoubleSequential,
       "redirector.handoff.accept@#1:kill;rudp.sack@#4:drop"},
      {66, Scenario::kSingleMigration, "rudp.fec@#2x2:drop"},
  };
  for (const auto& g : golden) {
    const ChaosCase chaos_case = generate_case(g.seed, /*light=*/true);
    EXPECT_EQ(chaos_case.scenario, g.scenario) << "seed " << g.seed;
    EXPECT_EQ(chaos_case.plan.to_string(), g.plan) << "seed " << g.seed;
  }
}

TEST_F(ChaosTest, DifferentSeedsDiverge) {
  // Not a hard guarantee seed-by-seed, but across a small window the
  // generator must not collapse to one schedule.
  const std::string first = generate_case(100, true).plan.to_string();
  bool diverged = false;
  for (std::uint64_t seed = 101; seed <= 110 && !diverged; ++seed) {
    diverged = generate_case(seed, true).plan.to_string() != first;
  }
  EXPECT_TRUE(diverged);
}

TEST_F(ChaosTest, FixedSeedSweepPasses) {
  for (std::uint64_t seed = 42; seed < 47; ++seed) {
    const ChaosCase chaos_case = generate_case(seed, /*light=*/true);
    const ChaosResult result = run_case(chaos_case);
    EXPECT_TRUE(result.pass) << result.line(chaos_case);
  }
}

TEST_F(ChaosTest, SameSeedReplaysBitForBit) {
  const ChaosCase chaos_case = generate_case(1234, /*light=*/true);
  const std::string once = run_case(chaos_case).line(chaos_case);
  const std::string twice = run_case(chaos_case).line(chaos_case);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("verdict=PASS"), std::string::npos) << once;
}

TEST_F(ChaosTest, PlantedDuplicateReplayIsCaughtAndMinimized) {
  // Single-migration scenario keeps reverse frames parked in the client's
  // suspension buffer, which is exactly where the planted fault duplicates.
  ChaosCase chaos_case;
  chaos_case.seed = 7;
  chaos_case.scenario = Scenario::kSingleMigration;
  chaos_case.forward_msgs = 4;
  chaos_case.reverse_msgs = 3;
  chaos_case.plan.seed = 7;
  // Noise the delta-debugger must strip away again.
  auto noise = Rule::parse("rudp.send@#3:drop");
  ASSERT_TRUE(noise.ok());
  chaos_case.plan.rules.push_back(*noise);
  chaos_case.plan.rules.push_back(planted_duplicate_replay_rule());

  const ChaosResult result = run_case(chaos_case);
  ASSERT_FALSE(result.pass);
  EXPECT_NE(result.failure.find("duplicate"), std::string::npos)
      << result.failure;

  int reruns = 0;
  const Plan minimal = minimize_plan(chaos_case, &reruns);
  ASSERT_LE(minimal.rules.size(), 2u);
  ASSERT_FALSE(minimal.rules.empty());
  bool has_planted = false;
  for (const Rule& rule : minimal.rules) {
    has_planted |= rule.site == "session.resume.replay" &&
                   rule.action == Action::kDuplicate;
  }
  EXPECT_TRUE(has_planted) << minimal.to_string();
  EXPECT_GE(reruns, 1);
}

TEST_F(ChaosTest, KnownSitesCoverTheWovenSurface) {
  const auto sites = known_sites();
  const auto has = [&](const char* site) {
    for (const auto& s : sites) {
      if (s == site) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("rudp.send"));
  EXPECT_TRUE(has("rudp.retransmit"));
  EXPECT_TRUE(has("redirector.handoff.accept"));
  EXPECT_TRUE(has("session.resume.replay"));
  EXPECT_TRUE(has("ctrl.suspend_ack.pre_send"));
  EXPECT_TRUE(has("ctrl.sus_res.on_recv"));
  // Every generated rule must target a woven site, or a plan could name a
  // site that never fires and silently test nothing.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const Rule& rule : generate_case(seed, true).plan.rules) {
      EXPECT_TRUE(has(rule.site.c_str())) << rule.site;
    }
  }
}

}  // namespace
}  // namespace naplet::fault
