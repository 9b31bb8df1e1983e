#include "fault/oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/state.hpp"

namespace naplet::fault {
namespace {

util::ByteSpan span_of(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

TEST(DeliveryLedgerTest, ExactlyOnceInOrderPasses) {
  DeliveryLedger ledger;
  const std::string msgs[] = {"alpha", "bravo", "charlie"};
  for (const auto& m : msgs) ledger.record_sent(0, span_of(m));
  std::uint64_t seq = 10;
  for (const auto& m : msgs) ledger.record_delivered(0, seq += 2, span_of(m));
  EXPECT_TRUE(ledger.check(/*require_complete=*/true).ok());
  EXPECT_EQ(ledger.sent_count(0), 3u);
  EXPECT_EQ(ledger.delivered_count(0), 3u);
}

TEST(DeliveryLedgerTest, CatchesDuplicateDelivery) {
  DeliveryLedger ledger;
  ledger.record_sent(7, span_of("only"));
  ledger.record_delivered(7, 1, span_of("only"));
  ledger.record_delivered(7, 2, span_of("only"));
  const auto status = ledger.check(true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.to_string().find("duplicate delivery"), std::string::npos)
      << status.to_string();
}

TEST(DeliveryLedgerTest, CatchesNonIncreasingSeq) {
  DeliveryLedger ledger;
  ledger.record_sent(0, span_of("a"));
  ledger.record_sent(0, span_of("b"));
  ledger.record_delivered(0, 5, span_of("a"));
  ledger.record_delivered(0, 5, span_of("b"));  // replayed frame seq
  EXPECT_FALSE(ledger.check(true).ok());
}

TEST(DeliveryLedgerTest, CatchesContentCorruption) {
  DeliveryLedger ledger;
  ledger.record_sent(0, span_of("payload"));
  ledger.record_delivered(0, 1, span_of("pAyload"));
  const auto status = ledger.check(true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.to_string().find("does not match"), std::string::npos)
      << status.to_string();
}

TEST(DeliveryLedgerTest, CatchesReordering) {
  DeliveryLedger ledger;
  ledger.record_sent(0, span_of("first"));
  ledger.record_sent(0, span_of("second"));
  // Both frames arrive, swapped: seqs increase but contents mismatch.
  ledger.record_delivered(0, 1, span_of("second"));
  ledger.record_delivered(0, 2, span_of("first"));
  EXPECT_FALSE(ledger.check(true).ok());
}

TEST(DeliveryLedgerTest, PrefixPassesOnlyWhenIncompleteAllowed) {
  DeliveryLedger ledger;
  ledger.record_sent(3, span_of("kept"));
  ledger.record_sent(3, span_of("lost"));
  ledger.record_delivered(3, 1, span_of("kept"));
  EXPECT_FALSE(ledger.check(/*require_complete=*/true).ok());
  EXPECT_TRUE(ledger.check(/*require_complete=*/false).ok());
}

TEST(DeliveryLedgerTest, StreamsAreIndependent) {
  DeliveryLedger ledger;
  ledger.record_sent(0, span_of("fwd"));
  ledger.record_delivered(0, 1, span_of("fwd"));
  ledger.record_sent(1, span_of("rev"));
  ledger.record_delivered(1, 1, span_of("rev"));
  EXPECT_TRUE(ledger.check(true).ok());
}

TransitionRecord legal(nsock::ConnState from, nsock::ConnEvent event) {
  const auto to = nsock::transition(from, event);
  EXPECT_TRUE(to.has_value())
      << "expected a golden-table edge from " << nsock::to_string(from);
  return TransitionRecord{1, true, static_cast<std::uint8_t>(from),
                          static_cast<std::uint8_t>(event),
                          static_cast<std::uint8_t>(to.value_or(from))};
}

TEST(FsmTraceTest, GoldenTableTransitionsPass) {
  const TransitionRecord trace[] = {
      legal(nsock::ConnState::kEstablished, nsock::ConnEvent::kAppSuspend),
      legal(nsock::ConnState::kSusSent, nsock::ConnEvent::kRecvSusAck),
      legal(nsock::ConnState::kSusAcked, nsock::ConnEvent::kExecSuspended),
      legal(nsock::ConnState::kSuspended, nsock::ConnEvent::kAppResume),
  };
  EXPECT_TRUE(check_fsm_trace(trace).ok());
}

TEST(FsmTraceTest, RejectsTransitionNotInTable) {
  // kClosed has no kRecvSusAck edge in the golden table.
  const TransitionRecord trace[] = {TransitionRecord{
      1, false, static_cast<std::uint8_t>(nsock::ConnState::kClosed),
      static_cast<std::uint8_t>(nsock::ConnEvent::kRecvSusAck), 0}};
  EXPECT_FALSE(check_fsm_trace(trace).ok());
}

TEST(FsmTraceTest, RejectsWrongDestination) {
  TransitionRecord record =
      legal(nsock::ConnState::kEstablished, nsock::ConnEvent::kAppSuspend);
  record.to = static_cast<std::uint8_t>(nsock::ConnState::kClosed);
  const TransitionRecord trace[] = {record};
  EXPECT_FALSE(check_fsm_trace(trace).ok());
}

TEST(FsmTraceTest, RejectsOutOfRangeRecords) {
  const TransitionRecord trace[] = {
      TransitionRecord{1, true, 200, 0, 0},
  };
  EXPECT_FALSE(check_fsm_trace(trace).ok());
}

}  // namespace
}  // namespace naplet::fault
