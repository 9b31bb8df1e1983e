#include "agent/itinerary.hpp"

#include <gtest/gtest.h>

namespace naplet::agent {
namespace {

/// Minimal context stub capturing migrate_to requests.
class StubContext : public AgentContext {
 public:
  const AgentId& self() const override { return id_; }
  const std::string& server_name() const override { return server_; }
  std::uint32_t hop_count() const override { return 0; }
  void migrate_to(const std::string& server_name) override {
    requested = server_name;
  }
  util::Status send_mail(const AgentId&, util::ByteSpan) override {
    return util::OkStatus();
  }
  std::optional<Mail> read_mail(util::Duration) override {
    return std::nullopt;
  }
  LocationService& locations() override { return locations_; }
  void* service(const std::string&) override { return nullptr; }

  std::string requested;

 private:
  AgentId id_{"stub"};
  std::string server_ = "stub-server";
  LocationService locations_;
};

TEST(Itinerary, SequentialRoute) {
  Itinerary route({"a", "b", "c"});
  StubContext ctx;

  EXPECT_EQ(route.peek(), "a");
  EXPECT_TRUE(route.advance(ctx));
  EXPECT_EQ(ctx.requested, "a");
  EXPECT_TRUE(route.advance(ctx));
  EXPECT_EQ(ctx.requested, "b");
  EXPECT_TRUE(route.advance(ctx));
  EXPECT_EQ(ctx.requested, "c");
  EXPECT_TRUE(route.exhausted());
  ctx.requested.clear();
  EXPECT_FALSE(route.advance(ctx));
  EXPECT_TRUE(ctx.requested.empty());  // no request once complete
  EXPECT_EQ(route.hops_taken(), 3u);
}

TEST(Itinerary, EmptyRouteIsExhausted) {
  Itinerary route;
  StubContext ctx;
  EXPECT_TRUE(route.exhausted());
  EXPECT_EQ(route.peek(), "");
  EXPECT_FALSE(route.advance(ctx));
}

TEST(Itinerary, LoopWithHopBound) {
  Itinerary route({"x", "y"}, /*loop=*/true, /*max_hops=*/5);
  StubContext ctx;
  std::vector<std::string> visited;
  while (route.advance(ctx)) visited.push_back(ctx.requested);
  EXPECT_EQ(visited,
            (std::vector<std::string>{"x", "y", "x", "y", "x"}));
  EXPECT_TRUE(route.exhausted());
}

TEST(Itinerary, PersistMidRoute) {
  Itinerary route({"a", "b", "c", "d"});
  StubContext ctx;
  ASSERT_TRUE(route.advance(ctx));
  ASSERT_TRUE(route.advance(ctx));

  util::Archive w;
  route.persist(w);
  util::Bytes encoded = std::move(w).take_bytes();

  Itinerary restored;
  util::Archive r((util::ByteSpan(encoded.data(), encoded.size())));
  restored.persist(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.peek(), "c");
  EXPECT_EQ(restored.hops_taken(), 2u);
  EXPECT_EQ(restored.stops(), route.stops());
}

TEST(Itinerary, PersistAcrossHopPreservesLoopBound) {
  // The scenario the persist path exists for: an agent hops, carrying its
  // itinerary in its serialized state, and continues at the destination.
  Itinerary route({"x", "y"}, /*loop=*/true, /*max_hops=*/3);
  StubContext ctx;
  ASSERT_TRUE(route.advance(ctx));
  EXPECT_EQ(ctx.requested, "x");

  util::Archive w;
  route.persist(w);
  util::Bytes encoded = std::move(w).take_bytes();

  Itinerary restored;
  util::Archive r((util::ByteSpan(encoded.data(), encoded.size())));
  restored.persist(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.hops_taken(), 1u);

  // The restored copy finishes the journey exactly where the original
  // would have: y, then x, then the hop bound ends the loop.
  ASSERT_TRUE(restored.advance(ctx));
  EXPECT_EQ(ctx.requested, "y");
  ASSERT_TRUE(restored.advance(ctx));
  EXPECT_EQ(ctx.requested, "x");
  EXPECT_TRUE(restored.exhausted());
  EXPECT_FALSE(restored.advance(ctx));
}

TEST(Itinerary, UnboundedLoopNeverExhausts) {
  Itinerary route({"only"}, /*loop=*/true);
  StubContext ctx;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(route.advance(ctx));
    EXPECT_EQ(ctx.requested, "only");
  }
  EXPECT_FALSE(route.exhausted());
}

}  // namespace
}  // namespace naplet::agent
