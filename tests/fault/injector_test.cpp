#include "fault/fault.hpp"

#include <gtest/gtest.h>

namespace naplet::fault {
namespace {

// Each test arms its own plan; always leave the singleton disarmed with the
// default wall clock so tests cannot leak state into one another.
class InjectorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Injector::instance().disarm();
    Injector::instance().set_time_source(nullptr);
  }
};

TEST(FaultGrammarTest, RuleRoundTrips) {
  for (const char* text : {
           "ctrl.suspend_ack.pre_send@#1:drop",
           "rudp.retransmit@#2x3:delay:40",
           "redirector.handoff.accept@#1:kill",
           "session.resume.replay@#1:dup",
           "rudp.send@#7:error",
           "rudp.send@#3x2:flip",
           "rudp.sack@#1:drop",
           "rudp.fast_retx@#1:drop",
           "rudp.sack@#2:flip",
           "ctrl.suspend.on_recv@t250:drop",
           "rudp.retransmit@t100x4:delay:5",
       }) {
    auto rule = Rule::parse(text);
    ASSERT_TRUE(rule.ok()) << text << ": " << rule.status().to_string();
    EXPECT_EQ(rule->to_string(), text);
  }
}

TEST(FaultGrammarTest, PlanRoundTrips) {
  const std::string text =
      "rudp.send@#4:drop;ctrl.suspend.pre_send@#1:dup;"
      "rudp.retransmit@#1x2:delay:10";
  auto plan = Plan::parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->to_string(), text);
}

TEST(FaultGrammarTest, RejectsMalformedRules) {
  EXPECT_FALSE(Rule::parse("no-at-sign").ok());
  EXPECT_FALSE(Rule::parse("@#1:drop").ok());
  EXPECT_FALSE(Rule::parse("site@1:drop").ok());      // missing # or t
  EXPECT_FALSE(Rule::parse("site@#0:drop").ok());     // hit is 1-based
  EXPECT_FALSE(Rule::parse("site@#1x0:drop").ok());   // empty window
  EXPECT_FALSE(Rule::parse("site@#1:explode").ok());  // unknown action
  EXPECT_FALSE(Rule::parse("site@#1:delay").ok());    // delay needs ms
  EXPECT_FALSE(Rule::parse("site@#1:drop:9").ok());   // only delay takes ms
  EXPECT_FALSE(Rule::parse("site@#banana:drop").ok());
}

TEST_F(InjectorTest, UnarmedSitesAreSilent) {
  ASSERT_FALSE(armed());
  EXPECT_FALSE(hit("rudp.send"));
  // Nothing was recorded: free hit() short-circuits before the registry.
  Injector::instance().arm(Plan{});
  EXPECT_EQ(Injector::instance().hit_count("rudp.send"), 0u);
}

TEST_F(InjectorTest, HitTriggerFiresOnExactWindow) {
  auto plan = Plan::parse("x@#2x2:drop");
  ASSERT_TRUE(plan.ok());
  Injector::instance().arm(*plan);
  EXPECT_EQ(hit("x").action, Action::kNone);  // hit 1
  EXPECT_EQ(hit("x").action, Action::kDrop);  // hit 2
  EXPECT_EQ(hit("x").action, Action::kDrop);  // hit 3
  EXPECT_EQ(hit("x").action, Action::kNone);  // hit 4
  EXPECT_EQ(Injector::instance().hit_count("x"), 4u);
  EXPECT_EQ(Injector::instance().hit_count("y"), 0u);
}

TEST_F(InjectorTest, FirstMatchingRuleWins) {
  auto plan = Plan::parse("x@#1:error;x@#1:drop");
  ASSERT_TRUE(plan.ok());
  Injector::instance().arm(*plan);
  EXPECT_EQ(hit("x").action, Action::kError);
}

TEST_F(InjectorTest, TimeTriggerUsesInstalledClock) {
  double now_ms = 0;
  Injector::instance().set_time_source([&now_ms] { return now_ms; });
  auto plan = Plan::parse("x@t100:error");
  ASSERT_TRUE(plan.ok());
  Injector::instance().arm(*plan);

  now_ms = 50;
  EXPECT_EQ(hit("x").action, Action::kNone);
  now_ms = 150;
  EXPECT_EQ(hit("x").action, Action::kError);
  now_ms = 200;
  EXPECT_EQ(hit("x").action, Action::kNone);  // count=1, already fired

  const auto times = Injector::instance().hit_times_ms("x");
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 50);
  EXPECT_EQ(times[1], 150);
  EXPECT_EQ(times[2], 200);
}

TEST_F(InjectorTest, ObservationModeRecordsWithoutFaults) {
  Injector::instance().arm(Plan{});  // empty plan: observation only
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(hit("probe"));
  EXPECT_EQ(Injector::instance().hit_count("probe"), 5u);
  EXPECT_EQ(Injector::instance().hit_times_ms("probe").size(), 5u);
}

TEST_F(InjectorTest, ArmResetsCountersAndTrace) {
  auto plan = Plan::parse("x@#1:drop");
  ASSERT_TRUE(plan.ok());
  Injector::instance().arm(*plan);
  EXPECT_EQ(hit("x").action, Action::kDrop);
  observe_transition(1, true, 0, 0, 0);
  EXPECT_EQ(Injector::instance().transitions().size(), 1u);

  Injector::instance().arm(*plan);  // re-arm: everything resets
  EXPECT_EQ(Injector::instance().hit_count("x"), 0u);
  EXPECT_TRUE(Injector::instance().transitions().empty());
  EXPECT_EQ(hit("x").action, Action::kDrop);  // rule window restarts too
}

TEST_F(InjectorTest, DisarmStopsRecording) {
  Injector::instance().arm(Plan{});
  EXPECT_FALSE(hit("x"));
  Injector::instance().disarm();
  EXPECT_FALSE(armed());
  EXPECT_FALSE(hit("x"));
  Injector::instance().arm(Plan{});
  EXPECT_EQ(Injector::instance().hit_count("x"), 0u);
}

}  // namespace
}  // namespace naplet::fault
