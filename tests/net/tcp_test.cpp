#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "net/frame.hpp"

namespace naplet::net {
namespace {

using namespace std::chrono_literals;

class TcpTest : public ::testing::Test {
 protected:
  std::shared_ptr<TcpNetwork> network_ = std::make_shared<TcpNetwork>();
};

TEST_F(TcpTest, ListenAutoAssignsPort) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT((*listener)->local_endpoint().port, 0);
  EXPECT_EQ((*listener)->local_endpoint().host, "127.0.0.1");
}

TEST_F(TcpTest, ConnectAcceptRoundTrip) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  const Endpoint dest = (*listener)->local_endpoint();

  auto client = network_->connect(dest, 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  const util::Bytes msg = {'h', 'i'};
  ASSERT_TRUE((*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  std::uint8_t buf[16];
  auto n = (*server)->read_some(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(buf[0], 'h');
}

TEST_F(TcpTest, VectoredWriteArrivesContiguous) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  const util::Bytes p1 = {'a', 'b'}, p2 = {'c'}, p3 = {'d', 'e', 'f'};
  const util::ByteSpan parts[3] = {util::ByteSpan(p1.data(), p1.size()),
                                   util::ByteSpan(p2.data(), p2.size()),
                                   util::ByteSpan(p3.data(), p3.size())};
  ASSERT_TRUE((*client)
                  ->write_all_vectored(std::span<const util::ByteSpan>(parts))
                  .ok());
  std::uint8_t buf[16];
  std::size_t got = 0;
  while (got < 6) {
    auto n = (*server)->read_some(buf + got, sizeof buf - got);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    got += *n;
  }
  EXPECT_EQ(std::string(buf, buf + 6), "abcdef");
}

TEST_F(TcpTest, ConnectRefusedFailsFast) {
  // Port 1 on loopback is almost certainly closed.
  auto client = network_->connect(Endpoint{"127.0.0.1", 1}, 500ms);
  EXPECT_FALSE(client.ok());
}

TEST_F(TcpTest, BadAddressRejected) {
  auto client = network_->connect(Endpoint{"not-an-ip", 80}, 100ms);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(TcpTest, AcceptTimesOut) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto conn = (*listener)->accept(50ms);
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), util::StatusCode::kTimeout);
}

TEST_F(TcpTest, ReadTimesOut) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  std::uint8_t buf[8];
  auto n = (*server)->read_some_for(buf, sizeof buf, 50ms);
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), util::StatusCode::kTimeout);
}

TEST_F(TcpTest, PeerCloseYieldsZeroRead) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  (*client)->close();
  std::uint8_t buf[8];
  auto n = (*server)->read_some(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(TcpTest, CloseUnblocksAccept) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(30ms);
    (*listener)->close();
  });
  auto conn = (*listener)->accept(std::nullopt);
  EXPECT_FALSE(conn.ok());
  closer.join();
}

TEST_F(TcpTest, CloseUnblocksReadSomeFor) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(30ms);
    (*server)->close();
  });
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t buf[8];
  auto n = (*server)->read_some_for(buf, sizeof buf, 30s);
  const auto waited = std::chrono::steady_clock::now() - start;
  closer.join();
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), util::StatusCode::kCancelled);
  EXPECT_LT(waited, 5s);
}

TEST_F(TcpTest, DrainPendingReturnsBufferedBytes) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());

  const util::Bytes msg = {1, 2, 3, 4};
  ASSERT_TRUE((*client)->write_all(util::ByteSpan(msg.data(), msg.size())).ok());
  // Give the kernel a moment to deliver on loopback.
  std::this_thread::sleep_for(20ms);
  auto drained = (*server)->drain_pending();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, msg);
  // A second drain finds nothing.
  auto again = (*server)->drain_pending();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

TEST_F(TcpTest, UdpSendRecv) {
  auto a = network_->bind_datagram(0);
  auto b = network_->bind_datagram(0);
  ASSERT_TRUE(a.ok() && b.ok());
  const util::Bytes msg = {9, 9, 9};
  ASSERT_TRUE(
      (*a)->send_to((*b)->local_endpoint(), util::ByteSpan(msg.data(), msg.size()))
          .ok());
  auto pkt = (*b)->recv_for(1s);
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ(pkt->data, msg);
  EXPECT_EQ(pkt->from.port, (*a)->local_endpoint().port);
}

TEST_F(TcpTest, UdpRecvTimesOut) {
  auto a = network_->bind_datagram(0);
  ASSERT_TRUE(a.ok());
  auto pkt = (*a)->recv_for(50ms);
  EXPECT_FALSE(pkt.ok());
  EXPECT_EQ(pkt.status().code(), util::StatusCode::kTimeout);
}

TEST_F(TcpTest, EndpointsReported) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*client)->remote_endpoint().port,
            (*listener)->local_endpoint().port);
  EXPECT_EQ((*client)->local_endpoint().port,
            (*server)->remote_endpoint().port);
}

TEST_F(TcpTest, FramesOverRealSockets) {
  auto listener = network_->listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = network_->connect((*listener)->local_endpoint(), 1s);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1s);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 50; ++i) {
    util::BytesWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(write_frame(**client,
                            util::ByteSpan(w.data().data(), w.data().size()))
                    .ok());
    auto got = read_frame(**server);
    ASSERT_TRUE(got.ok());
    util::BytesReader r(util::ByteSpan(got->data(), got->size()));
    EXPECT_EQ(*r.u32(), static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace naplet::net
