// PostOffice: mailbox-based asynchronous persistent communication — the
// pre-existing Naplet facility that NapletSocket complements (paper §1).
//
// Each server keeps a mailbox per resident agent. Mail addressed to a
// remote agent is routed via the location service and the server bus; mail
// for an agent that has moved on is forwarded (bounded hop count). Mail
// that cannot be routed yet (receiver in transit) is parked and retried by
// a background thread — the "persistent" half of the semantics. That thread
// also forwards mail that arrives over the bus for an agent living elsewhere,
// since a bus handler must not wait on a send. A mailbox migrates with its
// agent.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "agent/agent.hpp"
#include "agent/bus.hpp"
#include "agent/location.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::agent {

struct PostOfficeConfig {
  util::Duration retry_interval{std::chrono::milliseconds(50)};
  util::Duration delivery_ttl{std::chrono::seconds(10)};
};

class PostOffice {
 public:
  /// Mail forwarded this many times is dropped as a dead letter.
  static constexpr std::uint8_t kMaxForwardHops = 16;

  PostOffice(ServerBus& bus, LocationService& locations,
             std::string server_name, PostOfficeConfig config = {});
  ~PostOffice();

  PostOffice(const PostOffice&) = delete;
  PostOffice& operator=(const PostOffice&) = delete;

  /// Mailbox lifecycle, driven by the AgentServer.
  void open_mailbox(const AgentId& id);
  void close_mailbox(const AgentId& id);
  [[nodiscard]] std::vector<Mail> drain_mailbox(const AgentId& id);
  void restore_mailbox(const AgentId& id, std::vector<Mail> mail);

  /// Send mail from a resident agent. Local receivers get direct delivery;
  /// remote ones are routed; unroutable mail is parked for retry.
  util::Status send(const AgentId& from, const AgentId& to,
                    util::ByteSpan body);

  /// Blocking mailbox read for a resident agent.
  std::optional<Mail> read(const AgentId& owner, util::Duration timeout);

  void stop();

  // Observability.
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_.load(); }
  [[nodiscard]] std::uint64_t dead_letters() const {
    return dead_letters_.load();
  }

  /// One piece of mail in flight between servers (BusKind::kMail).
  struct Envelope {
    AgentId to;
    Mail mail;
    std::uint8_t hops = 0;
    std::int64_t deadline_us = 0;  // local retry bound; not on the wire

    void persist(util::Archive& ar) {
      ar.field(to);
      ar.field(mail);
      ar.field(hops);
    }
  };

 private:
  void on_bus_mail(const net::Endpoint& from, util::ByteSpan payload);
  /// Push into a resident agent's mailbox; false if it has none here.
  bool deliver_local(const Envelope& envelope);
  /// Attempt delivery (local or remote); false if it must be retried.
  bool try_route(Envelope& envelope);
  /// Hand to the retrier and wake it.
  void park(Envelope envelope);
  void retry_loop();

  ServerBus& bus_;
  LocationService& locations_;
  std::string server_name_ NAPLET_NOT_GUARDED("set at construction, "
                                              "immutable");
  PostOfficeConfig config_ NAPLET_NOT_GUARDED("set at construction, "
                                              "immutable");

  util::Mutex mu_{util::LockRank::kPostOffice, "postoffice"};
  std::map<AgentId, std::shared_ptr<util::BlockingQueue<Mail>>> mailboxes_
      NAPLET_GUARDED_BY(mu_);
  std::vector<Envelope> parked_ NAPLET_GUARDED_BY(mu_);

  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> dead_letters_{0};

  util::CondVar retry_cv_;
  std::thread retrier_;
};

}  // namespace naplet::agent
