#include "fault/oracle.hpp"

#include <sstream>

namespace naplet::fault {

namespace {

// FNV-1a: cheap content digest; the ledger compares digests, not bodies,
// so megabyte payload sweeps stay O(1) memory per message.
std::uint64_t digest(util::ByteSpan body) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : body) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void DeliveryLedger::record_sent(std::uint64_t stream, util::ByteSpan body) {
  util::MutexLock lock(mu_);
  streams_[stream].sent_digests.push_back(digest(body));
}

void DeliveryLedger::record_delivered(std::uint64_t stream, std::uint64_t seq,
                                      util::ByteSpan body) {
  util::MutexLock lock(mu_);
  streams_[stream].delivered.push_back(Delivered{seq, digest(body)});
}

util::Status DeliveryLedger::check(bool require_complete) const {
  util::MutexLock lock(mu_);
  for (const auto& [id, ledger] : streams_) {
    const auto fail = [&](std::size_t pos, const std::string& what) {
      std::ostringstream out;
      out << "ledger: stream " << id << " position " << pos << ": " << what
          << " (sent " << ledger.sent_digests.size() << ", delivered "
          << ledger.delivered.size() << ")";
      return util::Aborted(out.str());
    };
    if (ledger.delivered.size() > ledger.sent_digests.size()) {
      return fail(ledger.sent_digests.size(),
                  "delivered more messages than were sent (duplicate "
                  "delivery)");
    }
    for (std::size_t i = 0; i < ledger.delivered.size(); ++i) {
      if (i > 0 && ledger.delivered[i].seq <= ledger.delivered[i - 1].seq) {
        return fail(i, "frame seq not strictly increasing (duplicate or "
                       "reordered delivery), seq " +
                           std::to_string(ledger.delivered[i].seq) +
                           " after " +
                           std::to_string(ledger.delivered[i - 1].seq));
      }
      if (ledger.delivered[i].digest != ledger.sent_digests[i]) {
        return fail(i, "delivered body does not match the i-th sent body "
                       "(duplicate, loss, or corruption)");
      }
    }
    if (require_complete &&
        ledger.delivered.size() != ledger.sent_digests.size()) {
      return fail(ledger.delivered.size(),
                  "delivery incomplete (message lost)");
    }
  }
  return util::OkStatus();
}

std::size_t DeliveryLedger::delivered_count(std::uint64_t stream) const {
  util::MutexLock lock(mu_);
  const auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.delivered.size();
}

std::size_t DeliveryLedger::sent_count(std::uint64_t stream) const {
  util::MutexLock lock(mu_);
  const auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.sent_digests.size();
}

util::Status check_fsm_trace(std::span<const TransitionRecord> trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TransitionRecord& r = trace[i];
    if (r.from >= nsock::kConnStateCount || r.to >= nsock::kConnStateCount ||
        r.event >= nsock::kConnEventCount) {
      return util::Aborted("fsm trace: record " + std::to_string(i) +
                           " is out of enum range");
    }
    const auto from = static_cast<nsock::ConnState>(r.from);
    const auto event = static_cast<nsock::ConnEvent>(r.event);
    const auto to = static_cast<nsock::ConnState>(r.to);
    const auto golden = nsock::transition(from, event);
    if (!golden || *golden != to) {
      std::ostringstream out;
      out << "fsm trace: record " << i << " conn " << r.conn_id << " ["
          << (r.is_client ? "client" : "server") << "] performed "
          << nsock::to_string(from) << " --" << nsock::to_string(event)
          << "--> " << nsock::to_string(to) << ", golden table says "
          << (golden ? nsock::to_string(*golden) : "ILLEGAL");
      return util::Aborted(out.str());
    }
  }
  return util::OkStatus();
}

}  // namespace naplet::fault
