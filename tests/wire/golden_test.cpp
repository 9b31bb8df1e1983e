// Every format's bytes for a fixed input, and every decoder's reading of
// those bytes. The encodings are shared by live peers, journals and
// snapshots written by older builds, so none may move.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <mutex>

#include "agent/agent_server.hpp"
#include "core/session.hpp"
#include "core/test_realm.hpp"
#include "net/frame.hpp"
#include "net/sim.hpp"
#include "wire/golden.hpp"

namespace naplet::golden {
namespace {

using namespace std::chrono_literals;

/// Compares `actual` with the pinned hex; on a mismatch prints the actual
/// hex under `name` so a deliberate format change can be re-pinned.
void expect_golden(const std::string& name, const util::Bytes& actual,
                   const std::string& hex) {
  const std::string got =
      util::to_hex(util::ByteSpan(actual.data(), actual.size()));
  if (got != hex) ADD_FAILURE() << "GOLDEN " << name << " " << got;
}

util::ByteSpan span_of(const util::Bytes& b) {
  return util::ByteSpan(b.data(), b.size());
}

TEST(Golden, CtrlMsgEveryType) {
  for (const CtrlGolden& g : ctrl_goldens()) {
    const std::string name = "ctrl." + std::string(nsock::to_string(g.type));
    const nsock::CtrlMsg msg = sample_ctrl(g.type);
    expect_golden(name, msg.encode(), g.hex);

    // The MAC covers everything before the trailing length-prefixed tag.
    const util::Bytes golden = unhex(g.hex);
    ASSERT_GE(golden.size(), 4 + msg.mac.size()) << name;
    expect_golden(name + ".mac_payload", msg.mac_payload(),
                  util::to_hex(util::ByteSpan(
                      golden.data(), golden.size() - 4 - msg.mac.size())));

    auto decoded = nsock::CtrlMsg::decode(span_of(golden));
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().to_string();
    EXPECT_EQ(decoded->type, g.type);
    EXPECT_EQ(decoded->node, sample_node());
    expect_golden(name + ".reencoded", decoded->encode(), g.hex);
  }
}

TEST(Golden, HandoffMsgEveryType) {
  for (const HandoffGolden& g : handoff_goldens()) {
    const std::string name =
        "handoff." + std::string(nsock::to_string(g.type));
    const nsock::HandoffMsg msg = sample_handoff(g.type);
    expect_golden(name, msg.encode(), g.hex);

    const util::Bytes golden = unhex(g.hex);
    ASSERT_GE(golden.size(), 4 + msg.mac.size()) << name;
    expect_golden(name + ".mac_payload", msg.mac_payload(),
                  util::to_hex(util::ByteSpan(
                      golden.data(), golden.size() - 4 - msg.mac.size())));

    auto decoded = nsock::HandoffMsg::decode(span_of(golden));
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().to_string();
    EXPECT_EQ(decoded->type, g.type);
    EXPECT_EQ(decoded->recv_seq, 4u);
    EXPECT_EQ(decoded->node, sample_node());
    expect_golden(name + ".reencoded", decoded->encode(), g.hex);
  }
}

TEST(Golden, SnapshotFile) {
  const std::string path = ::testing::TempDir() + "golden_snapshot_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(recovery::Snapshot::write(path, sample_snapshot()).ok());
  {
    std::ifstream in(path, std::ios::binary);
    const util::Bytes written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    expect_golden("snapshot", written, kSnapshotHex);
  }
  {
    const util::Bytes golden = unhex(kSnapshotHex);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(golden.data()),
              static_cast<std::streamsize>(golden.size()));
  }
  auto read = recovery::Snapshot::read(path);
  ::unlink(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->epoch, 5u);
  EXPECT_EQ(read->sessions, sample_snapshot().sessions);
}

TEST(Golden, SessionBlob) {
  auto session = nsock::Session::import_state(span_of(unhex(kSessionHex)));
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  nsock::Session& s = **session;
  EXPECT_EQ(s.conn_id(), 0x1111u);
  EXPECT_TRUE(s.is_client());
  EXPECT_EQ(s.local_agent(), agent::AgentId("alice"));
  EXPECT_EQ(s.peer_node(), sample_node());
  EXPECT_EQ(s.buffered_frames(), 2u);
  EXPECT_TRUE(s.flags().remote_suspended);
  EXPECT_TRUE(s.flags().peer_parked);
  EXPECT_EQ(s.flags().peer_declared_seq, 3u);
  EXPECT_EQ(s.session_key(), (util::Bytes{0xAB, 0xAB, 0xAB, 0xAB}));
  expect_golden("session.reexported", s.export_state(), kSessionHex);
}

TEST(Golden, ExportList) {
  nsock::testing::SimRealm realm(1, /*security=*/false);
  const agent::AgentId alice("alice");
  ASSERT_TRUE(realm.ctrl(0).import_sessions(alice,
                                            span_of(unhex(kExportListHex)))
                  .ok());
  expect_golden("export_list", realm.ctrl(0).export_sessions(alice),
                kExportListHex);
}

TEST(Golden, MailEnvelope) {
  net::SimNet net;
  obs::Registry metrics;
  agent::LocationService locations;
  auto make_bus = [&](const std::string& name) {
    auto dgram = net.add_node(name)->bind_datagram(0);
    EXPECT_TRUE(dgram.ok());
    return std::make_unique<agent::ServerBus>(std::move(*dgram), metrics);
  };
  auto bus_a = make_bus("a");
  auto bus_b = make_bus("b");
  agent::PostOffice post(*bus_a, locations, "server-a");

  std::mutex mu;
  std::condition_variable cv;
  util::Bytes captured;
  bus_b->subscribe(agent::BusKind::kMail,
                   [&](const net::Endpoint&, util::ByteSpan payload) {
                     std::lock_guard lock(mu);
                     captured.assign(payload.begin(), payload.end());
                     cv.notify_all();
                   });

  // Outbound: alice lives behind bus b, so the post office routes the mail.
  agent::NodeInfo node_b;
  node_b.server_name = "server-b";
  node_b.control = bus_b->local_endpoint();
  locations.register_agent(agent::AgentId("alice"), node_b);
  const util::Bytes hi = {'h', 'i'};
  ASSERT_TRUE(
      post.send(agent::AgentId("carol"), agent::AgentId("alice"), span_of(hi))
          .ok());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !captured.empty(); }));
    expect_golden("envelope", captured, kEnvelopeHex);
  }

  // Inbound: the golden envelope lands in alice's mailbox here.
  post.open_mailbox(agent::AgentId("alice"));
  const util::Bytes golden = unhex(kEnvelopeHex);
  ASSERT_TRUE(bus_b->send(bus_a->local_endpoint(), agent::BusKind::kMail,
                          span_of(golden))
                  .ok());
  auto mail = post.read(agent::AgentId("alice"), 5s);
  ASSERT_TRUE(mail.has_value());
  EXPECT_EQ(mail->from, agent::AgentId("carol"));
  EXPECT_EQ(mail->body, hi);

  post.stop();
  bus_a->stop();
  bus_b->stop();
}

/// What GoldenAgent saw on its second hop.
struct LandingProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool landed = false;
  std::uint32_t hop = 0;
  std::uint64_t value = 0;
  std::string label;
  util::Bytes mail;
};

LandingProbe& landing() {
  static LandingProbe probe;
  return probe;
}

/// Mails itself once, then hops to "fake"; on any later hop it reports
/// its state and mailbox to landing() and stays.
class GoldenAgent : public agent::Agent {
 public:
  std::uint64_t value = 0;
  std::string label;

  void run(agent::AgentContext& ctx) override {
    if (ctx.hop_count() == 0) {
      const util::Bytes m1 = {'m', '1'};
      (void)ctx.send_mail(ctx.self(), span_of(m1));
      ctx.migrate_to("fake");
      return;
    }
    auto mail = ctx.read_mail(1s);
    LandingProbe& p = landing();
    std::lock_guard lock(p.mu);
    p.landed = true;
    p.hop = ctx.hop_count();
    p.value = value;
    p.label = label;
    if (mail) p.mail = mail->body;
    p.cv.notify_all();
  }

  void persist(util::Archive& ar) override {
    ar.field(value);
    ar.field(label);
  }

  std::string type_name() const override { return "GoldenAgent"; }
};
NAPLET_REGISTER_AGENT(GoldenAgent);

TEST(Golden, AgentTransferFrame) {
  net::SimNet net;
  agent::LocationService locations;
  const util::Bytes realm_key(32, 0x5A);
  auto make_server = [&](const std::string& name) {
    agent::AgentServerConfig config;
    config.name = name;
    config.realm_key = realm_key;
    return std::make_unique<agent::AgentServer>(net.add_node(name), locations,
                                                std::move(config));
  };
  auto alpha = make_server("alpha");
  auto beta = make_server("beta");
  ASSERT_TRUE(alpha->start().ok());
  ASSERT_TRUE(beta->start().ok());

  // Outbound: "fake" is a bare listener that captures the frame and acks.
  auto fake_node = net.add_node("fake");
  auto listener = fake_node->listen(0);
  ASSERT_TRUE(listener.ok());
  agent::NodeInfo fake;
  fake.server_name = "fake";
  fake.migration = (*listener)->local_endpoint();
  locations.register_server(fake);

  auto agent = std::make_unique<GoldenAgent>();
  agent->value = 0x5151;
  agent->label = "g";
  ASSERT_TRUE(alpha->launch(std::move(agent), agent::AgentId("gold")).ok());
  auto stream = (*listener)->accept(5s);
  ASSERT_TRUE(stream.ok()) << stream.status().to_string();
  auto frame = net::read_frame(**stream);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  const std::uint8_t yes = 1;
  ASSERT_TRUE(net::write_frame(**stream, util::ByteSpan(&yes, 1)).ok());

  // The token's issue time and tag change with every issue; everything
  // else in the frame is fixed.
  const util::Bytes golden = unhex(kTransferHex);
  util::Bytes masked = *frame;
  if (masked.size() == golden.size()) {
    std::copy_n(golden.begin() + kTransferTokenStampOffset,
                kTransferTokenStampSize,
                masked.begin() + kTransferTokenStampOffset);
  }
  expect_golden("transfer", masked, kTransferHex);

  // Inbound: beta admits the golden frame (its token was issued under the
  // same realm key) and the agent lands with its state and mail.
  auto to_beta = net.add_node("sender")->connect(beta->node_info().migration,
                                                 5s);
  ASSERT_TRUE(to_beta.ok());
  ASSERT_TRUE(net::write_frame(**to_beta, span_of(golden)).ok());
  auto reply = net::read_frame(**to_beta);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, util::Bytes{1});
  {
    LandingProbe& p = landing();
    std::unique_lock lock(p.mu);
    ASSERT_TRUE(p.cv.wait_for(lock, 5s, [&] { return p.landed; }));
    EXPECT_EQ(p.hop, 1u);
    EXPECT_EQ(p.value, 0x5151u);
    EXPECT_EQ(p.label, "g");
    EXPECT_EQ(p.mail, (util::Bytes{'m', '1'}));
  }
  EXPECT_TRUE(agent::wait_agent_gone(locations, agent::AgentId("gold"), 5s));
  alpha->stop();
  beta->stop();
}

}  // namespace
}  // namespace naplet::golden
