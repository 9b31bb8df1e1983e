#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "recovery/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nsock = naplet::nsock;
namespace util = naplet::util;

namespace {
// Timed results are folded in here so the compiler keeps the calls.
std::atomic<std::uint64_t> g_sink{0};
}  // namespace

double Counters::get(const std::string& name) const {
  const auto it = v.find(name);
  return it == v.end() ? 0.0 : it->second;
}

Counters Counters::minus(const Counters& before) const {
  Counters out;
  for (const auto& [name, value] : v) out.v[name] = value - before.get(name);
  return out;
}

Counters read_counters(nsock::Realm& realm,
                       const std::vector<std::string>& nodes) {
  // Exact sums/counts of the histograms the ledger attributes time with.
  static const char* kHistograms[] = {
      "rudp_rtt_us",
      "nsock_drain_time_us",
      "nsock_handoff_time_us",
      "nsock_suspend_latency_us",
      "nsock_resume_latency_us",
      "nsock_replayed_buffer_bytes",
      "nsock_connect_total_us",
      "nsock_connect_management_us",
      "nsock_connect_security_us",
      "nsock_connect_key_exchange_us",
      "nsock_connect_handshake_us",
      "nsock_connect_open_socket_us",
  };
  Counters out;
  for (const std::string& name : nodes) {
    nsock::NapletRuntime& node = realm.node(name);
    nsock::SocketController& ctrl = node.controller();
    naplet::net::ReliableChannel& channel = node.server().bus().channel();
    out.v["rudp.sent"] += static_cast<double>(channel.messages_sent());
    out.v["rudp.retx"] += static_cast<double>(channel.retransmissions());
    out.v["rudp.dups"] += static_cast<double>(channel.duplicates_dropped());
    const naplet::obs::Snapshot snap = ctrl.metrics().snapshot();
    for (const char* hist : kHistograms) {
      if (const auto* h = snap.histogram(hist)) {
        out.v[std::string(hist) + ".sum"] += static_cast<double>(h->sum);
        out.v[std::string(hist) + ".count"] += static_cast<double>(h->count);
      }
    }
    if (const auto* store = ctrl.durable_store()) {
      out.v["journal.records"] += static_cast<double>(store->records_written());
      out.v["journal.compactions"] += static_cast<double>(store->compactions());
    }
  }
  return out;
}

namespace {

double elapsed_us(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1000.0;
}

}  // namespace

DhTiming time_dh(naplet::crypto::DhGroup group, int n) {
  Samples keygen, derive;
  auto peer = naplet::crypto::DhKeyPair::generate(group);
  if (!peer.ok()) return {};
  for (int i = 0; i < n; ++i) {
    std::int64_t t0 = now_ns();
    auto mine = naplet::crypto::DhKeyPair::generate(group);
    keygen.add(elapsed_us(t0));
    if (!mine.ok()) return {};
    const util::Bytes& pub = peer->public_value();
    t0 = now_ns();
    auto key = mine->session_key(util::ByteSpan(pub.data(), pub.size()));
    derive.add(elapsed_us(t0));
    if (!key.ok()) return {};
  }
  return {keygen.median(), derive.median()};
}

double time_hmac_us(util::ByteSpan payload) {
  const util::Bytes key(32, 0x5a);
  constexpr int kBatch = 200;
  Samples per_call;
  for (int round = 0; round < 25; ++round) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      const util::Bytes tag =
          nsock::compute_mac(util::ByteSpan(key.data(), key.size()), payload);
      g_sink.fetch_add(tag[0], std::memory_order_relaxed);
    }
    per_call.add(elapsed_us(t0) / kBatch);
  }
  return per_call.median();
}

double time_ctrl_codec_us(const nsock::CtrlMsg& msg) {
  constexpr int kBatch = 200;
  Samples per_call;
  for (int round = 0; round < 25; ++round) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      const util::Bytes wire = msg.encode();
      auto back =
          nsock::CtrlMsg::decode(util::ByteSpan(wire.data(), wire.size()));
      g_sink.fetch_add(back.ok() ? back->sent_seq : 1,
                       std::memory_order_relaxed);
    }
    per_call.add(elapsed_us(t0) / kBatch);
  }
  return per_call.median();
}

double time_journal_record_us(const std::string& dir, std::size_t blob_bytes,
                              int n) {
  naplet::recovery::DurableStoreOptions opts;
  opts.dir = dir;
  naplet::recovery::DurableStore store(opts);
  if (!store.open().ok()) return 0;
  const util::Bytes blob(blob_bytes, 0x33);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    const auto point = i % 2 == 0
                           ? naplet::recovery::CommitPoint::kSuspendCommitted
                           : naplet::recovery::CommitPoint::kResumeCommitted;
    if (!store.record(point, static_cast<std::uint64_t>(i % 8 + 1),
                      util::ByteSpan(blob.data(), blob.size()))
             .ok()) {
      return 0;
    }
  }
  return elapsed_us(t0) / n;
}

nsock::CtrlMsg sample_sus(const naplet::agent::NodeInfo& node,
                          const std::string& agent, bool security) {
  nsock::CtrlMsg msg;
  msg.type = nsock::CtrlType::kSus;
  msg.conn_id = 0x1234567890ULL;
  msg.epoch = 1;
  msg.trace_id = 0x42;
  msg.sent_seq = 4096;
  msg.client_agent = agent;
  msg.node = node;
  if (security) {
    const util::Bytes key(32, 0x5a);
    const util::Bytes payload = msg.mac_payload();
    msg.mac = nsock::compute_mac(util::ByteSpan(key.data(), key.size()),
                                 util::ByteSpan(payload.data(), payload.size()));
  }
  return msg;
}

// ---- BusProbe ---------------------------------------------------------------

BusProbe::BusProbe(naplet::agent::ServerBus& from,
                   naplet::agent::ServerBus& to)
    : from_(from), to_(to.local_endpoint()), state_(std::make_shared<State>()) {
  std::shared_ptr<State> state = state_;
  to.subscribe(naplet::agent::BusKind::kProbe,
               [state](const naplet::net::Endpoint&, util::ByteSpan payload) {
                 if (payload.size() < sizeof(std::int64_t)) return;
                 std::int64_t sent_ns = 0;
                 std::memcpy(&sent_ns, payload.data(), sizeof sent_ns);
                 const double lag = elapsed_us(sent_ns);
                 util::MutexLock lock(state->mu);
                 state->lag_us.add(lag);
               });
}

void BusProbe::probe_once() {
  const std::int64_t t0 = now_ns();
  std::uint8_t payload[sizeof t0];
  std::memcpy(payload, &t0, sizeof t0);
  const util::Status st = from_.send(to_, naplet::agent::BusKind::kProbe,
                                     util::ByteSpan(payload, sizeof payload));
  if (st.ok()) {
    rtt_us_.add(elapsed_us(t0));
    ++sent_;
  }
}

Samples BusProbe::rtt_us() const { return rtt_us_; }

void probe_until(BusProbe* probe, std::int64_t deadline_ns) {
  // 50 probes/s: next to every workload's own control traffic this is
  // noise, and it keeps the prober off the cores the workers use.
  constexpr auto kInterval = std::chrono::milliseconds(20);
  while (now_ns() < deadline_ns) {
    if (probe != nullptr) probe->probe_once();
    const std::int64_t left = deadline_ns - now_ns();
    std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
        kInterval, std::chrono::nanoseconds(std::max<std::int64_t>(0, left))));
  }
}

Samples BusProbe::lag_us() const {
  util::MutexLock lock(state_->mu);
  return state_->lag_us;
}

}  // namespace perfbench
