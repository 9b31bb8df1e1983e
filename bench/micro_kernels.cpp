// Micro-benchmarks (google-benchmark) for the protocol's building blocks:
// the crypto kernels that dominate secure connection setup, the wire codecs,
// and the FSM transition function. These quantify the ablation between
// DH group sizes — the design choice behind the Table 1 security cost.
#include <benchmark/benchmark.h>

#include "core/state.hpp"
#include "core/wire.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace {

using naplet::crypto::DhGroup;
using naplet::crypto::DhKeyPair;

void BM_Sha256(benchmark::State& state) {
  const naplet::util::Bytes data(static_cast<std::size_t>(state.range(0)),
                                 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naplet::crypto::Sha256::hash(
        naplet::util::ByteSpan(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const naplet::util::Bytes key(32, 0x11);
  const naplet::util::Bytes data(static_cast<std::size_t>(state.range(0)),
                                 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naplet::crypto::hmac_sha256(
        naplet::util::ByteSpan(key.data(), key.size()),
        naplet::util::ByteSpan(data.data(), data.size())));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(128)->Arg(4096);

template <DhGroup G>
void BM_DhKeygen(benchmark::State& state) {
  for (auto _ : state) {
    auto kp = DhKeyPair::generate(G);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_DhKeygen<DhGroup::kModp768>);
BENCHMARK(BM_DhKeygen<DhGroup::kModp1536>);
BENCHMARK(BM_DhKeygen<DhGroup::kModp2048>);

template <DhGroup G>
void BM_DhSessionKey(benchmark::State& state) {
  auto alice = DhKeyPair::generate(G);
  auto bob = DhKeyPair::generate(G);
  for (auto _ : state) {
    auto key = alice->session_key(naplet::util::ByteSpan(
        bob->public_value().data(), bob->public_value().size()));
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_DhSessionKey<DhGroup::kModp768>);
BENCHMARK(BM_DhSessionKey<DhGroup::kModp1536>);
BENCHMARK(BM_DhSessionKey<DhGroup::kModp2048>);

void BM_CtrlMsgEncodeDecode(benchmark::State& state) {
  naplet::nsock::CtrlMsg msg;
  msg.type = naplet::nsock::CtrlType::kSus;
  msg.conn_id = 12345;
  msg.sent_seq = 678;
  msg.node.server_name = "node0";
  msg.node.control = {"127.0.0.1", 40000};
  msg.node.redirector = {"127.0.0.1", 40001};
  msg.node.migration = {"127.0.0.1", 40002};
  msg.mac = naplet::util::Bytes(32, 0x22);
  for (auto _ : state) {
    const naplet::util::Bytes wire = msg.encode();
    auto decoded = naplet::nsock::CtrlMsg::decode(
        naplet::util::ByteSpan(wire.data(), wire.size()));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CtrlMsgEncodeDecode);

void BM_DataFrameEncodeDecode(benchmark::State& state) {
  const naplet::nsock::DataFrame frame{
      42, naplet::util::Bytes(static_cast<std::size_t>(state.range(0)), 0x7)};
  for (auto _ : state) {
    const naplet::util::Bytes wire = frame.encode();
    auto decoded = naplet::nsock::DataFrame::decode(
        naplet::util::ByteSpan(wire.data(), wire.size()));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DataFrameEncodeDecode)->Arg(64)->Arg(2048)->Arg(65536);

void BM_FsmTransition(benchmark::State& state) {
  using naplet::nsock::ConnEvent;
  using naplet::nsock::ConnState;
  int i = 0;
  for (auto _ : state) {
    const auto s = static_cast<ConnState>(i % naplet::nsock::kConnStateCount);
    const auto e = static_cast<ConnEvent>(i % naplet::nsock::kConnEventCount);
    benchmark::DoNotOptimize(naplet::nsock::transition(s, e));
    ++i;
  }
}
BENCHMARK(BM_FsmTransition);

}  // namespace

BENCHMARK_MAIN();
