// Lower-layer measurements for the traced run: counter deltas the library
// already exposes, direct timings of each layer's public functions on the
// workload's own inputs, and the control-bus probe.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/runtime.hpp"
#include "core/wire.hpp"
#include "crypto/dh.hpp"

namespace perfbench {

/// Counters and exact histogram sums/counts, summed over every node of a
/// realm. Registry histograms are read only through `.sum` and `.count`.
struct Counters {
  std::map<std::string, double> v;

  [[nodiscard]] double get(const std::string& name) const;
  /// Mean of histogram `name` over the delta (sum / count).
  [[nodiscard]] double mean(const std::string& hist) const {
    return ratio(get(hist + ".sum"), get(hist + ".count"));
  }
  [[nodiscard]] Counters minus(const Counters& before) const;
};

[[nodiscard]] Counters read_counters(naplet::nsock::Realm& realm,
                                     const std::vector<std::string>& nodes);

struct DhTiming {
  double keygen_us = 0;
  double session_key_us = 0;
};
/// Median DhKeyPair::generate and session_key times for `group`.
[[nodiscard]] DhTiming time_dh(naplet::crypto::DhGroup group, int n);

/// Median compute_mac time over `payload` with a 32-byte session key.
[[nodiscard]] double time_hmac_us(naplet::util::ByteSpan payload);

/// Median CtrlMsg encode + decode time of `msg`.
[[nodiscard]] double time_ctrl_codec_us(const naplet::nsock::CtrlMsg& msg);

/// Mean DurableStore::record time (compactions amortized in) for blobs of
/// `blob_bytes`, journaling into `dir`.
[[nodiscard]] double time_journal_record_us(const std::string& dir,
                                            std::size_t blob_bytes, int n);

/// A suspend request shaped like the ones the workload sends: the node's
/// real endpoints and, with security, a MAC under a 32-byte key.
[[nodiscard]] naplet::nsock::CtrlMsg sample_sus(
    const naplet::agent::NodeInfo& node, const std::string& agent,
    bool security);

/// Low-rate ServerBus::send(kProbe) from one node's bus to a peer bus that
/// subscribes to kProbe (nothing in the library uses that kind).
class BusProbe {
 public:
  BusProbe(naplet::agent::ServerBus& from, naplet::agent::ServerBus& to);

  /// One probe: records the send->ACK time and the send->handler time.
  void probe_once();

  [[nodiscard]] Samples rtt_us() const;
  [[nodiscard]] Samples lag_us() const;
  [[nodiscard]] std::size_t sent() const { return sent_; }

 private:
  struct State {
    naplet::util::Mutex mu{naplet::util::LockRank::kUnranked,
                           "perfbench.probe"};
    Samples lag_us;
  };
  naplet::agent::ServerBus& from_;
  naplet::net::Endpoint to_;
  std::shared_ptr<State> state_;  // shared with the peer's handler
  Samples rtt_us_;
  std::size_t sent_ = 0;
};

}  // namespace perfbench
