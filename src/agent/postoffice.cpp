#include "agent/postoffice.hpp"

#include "util/log.hpp"

namespace naplet::agent {

PostOffice::PostOffice(ServerBus& bus, LocationService& locations,
                       std::string server_name, PostOfficeConfig config)
    : bus_(bus),
      locations_(locations),
      server_name_(std::move(server_name)),
      config_(config) {
  bus_.subscribe(BusKind::kMail,
                 [this](const net::Endpoint& from, util::ByteSpan payload) {
                   on_bus_mail(from, payload);
                 });
  retrier_ = std::thread([this] { retry_loop(); });
}

PostOffice::~PostOffice() {
  stop();
  if (retrier_.joinable()) retrier_.join();
}

void PostOffice::stop() {
  if (stopped_.exchange(true)) return;
  std::vector<std::shared_ptr<util::BlockingQueue<Mail>>> boxes;
  {
    util::MutexLock lock(mu_);
    for (auto& [id, box] : mailboxes_) boxes.push_back(box);
  }
  for (auto& box : boxes) box->close();
  retry_cv_.notify_all();
}

void PostOffice::open_mailbox(const AgentId& id) {
  util::MutexLock lock(mu_);
  if (!mailboxes_.contains(id)) {
    mailboxes_[id] = std::make_shared<util::BlockingQueue<Mail>>();
  }
}

void PostOffice::close_mailbox(const AgentId& id) {
  std::shared_ptr<util::BlockingQueue<Mail>> box;
  {
    util::MutexLock lock(mu_);
    auto it = mailboxes_.find(id);
    if (it == mailboxes_.end()) return;
    box = it->second;
    mailboxes_.erase(it);
  }
  box->close();
}

std::vector<Mail> PostOffice::drain_mailbox(const AgentId& id) {
  std::shared_ptr<util::BlockingQueue<Mail>> box;
  {
    util::MutexLock lock(mu_);
    auto it = mailboxes_.find(id);
    if (it == mailboxes_.end()) return {};
    box = it->second;
    mailboxes_.erase(it);
  }
  std::vector<Mail> out;
  while (auto mail = box->try_pop()) out.push_back(std::move(*mail));
  box->close();
  return out;
}

void PostOffice::restore_mailbox(const AgentId& id, std::vector<Mail> mail) {
  open_mailbox(id);
  std::shared_ptr<util::BlockingQueue<Mail>> box;
  {
    util::MutexLock lock(mu_);
    box = mailboxes_[id];
  }
  for (auto& m : mail) box->push(std::move(m));
}

bool PostOffice::deliver_local(const Envelope& envelope) {
  util::MutexLock lock(mu_);
  auto it = mailboxes_.find(envelope.to);
  if (it == mailboxes_.end()) return false;
  it->second->push(envelope.mail);
  return true;
}

void PostOffice::park(Envelope envelope) {
  {
    util::MutexLock lock(mu_);
    parked_.push_back(std::move(envelope));
  }
  retry_cv_.notify_all();
}

bool PostOffice::try_route(Envelope& envelope) {
  if (deliver_local(envelope)) return true;

  // Remote: route to the receiver's current server.
  auto node = locations_.try_lookup(envelope.to);
  if (!node) return false;  // unknown or in transit: park for retry
  if (node->server_name == server_name_) {
    // Registered here but no mailbox yet (admission race): retry shortly.
    return false;
  }
  if (envelope.hops >= kMaxForwardHops) {
    dead_letters_.fetch_add(1);
    NAPLET_LOG(kWarn, "postoffice")
        << "dropping mail to " << envelope.to.name() << ": hop limit";
    return true;  // dropped; do not retry
  }
  ++envelope.hops;
  forwarded_.fetch_add(envelope.hops > 1 ? 1 : 0);
  const util::Bytes wire = util::Archive::encode(envelope);
  auto status = bus_.send(node->control, BusKind::kMail,
                          util::ByteSpan(wire.data(), wire.size()));
  if (!status.ok()) {
    --envelope.hops;
    return false;  // transient send failure: retry
  }
  return true;
}

util::Status PostOffice::send(const AgentId& from, const AgentId& to,
                              util::ByteSpan body) {
  if (stopped_.load()) return util::Cancelled("postoffice stopped");
  Envelope envelope;
  envelope.to = to;
  envelope.mail = Mail{from, util::Bytes(body.begin(), body.end())};
  envelope.deadline_us = util::RealClock::instance().now_us() +
                         config_.delivery_ttl.count();
  if (!try_route(envelope)) park(std::move(envelope));
  return util::OkStatus();  // accepted for (persistent) delivery
}

std::optional<Mail> PostOffice::read(const AgentId& owner,
                                     util::Duration timeout) {
  std::shared_ptr<util::BlockingQueue<Mail>> box;
  {
    util::MutexLock lock(mu_);
    auto it = mailboxes_.find(owner);
    if (it == mailboxes_.end()) return std::nullopt;
    box = it->second;
  }
  return box->pop_for(timeout);
}

void PostOffice::on_bus_mail(const net::Endpoint& /*from*/,
                             util::ByteSpan payload) {
  auto envelope = util::Archive::decode<Envelope>(payload);
  if (!envelope.ok()) {
    NAPLET_LOG(kWarn, "postoffice") << "bad mail frame: "
                                    << envelope.status().to_string();
    return;
  }
  envelope->deadline_us = util::RealClock::instance().now_us() +
                          config_.delivery_ttl.count();
  // This runs on the bus receiver thread, which must not wait on an ACK:
  // mail for a resident agent is delivered here, and the retrier forwards
  // the rest with its blocking send.
  if (!deliver_local(*envelope)) park(std::move(*envelope));
}

void PostOffice::retry_loop() {
  util::UniqueMutexLock lock(mu_);
  while (!stopped_.load()) {
    retry_cv_.wait_for(mu_, config_.retry_interval);
    if (stopped_.load()) break;

    std::vector<Envelope> pending = std::move(parked_);
    parked_.clear();
    lock.unlock();

    const std::int64_t now = util::RealClock::instance().now_us();
    std::vector<Envelope> still_pending;
    for (auto& envelope : pending) {
      if (try_route(envelope)) continue;
      if (now >= envelope.deadline_us) {
        dead_letters_.fetch_add(1);
        NAPLET_LOG(kWarn, "postoffice")
            << "dropping mail to " << envelope.to.name() << ": TTL expired";
        continue;
      }
      still_pending.push_back(std::move(envelope));
    }

    lock.lock();
    for (auto& envelope : still_pending) {
      parked_.push_back(std::move(envelope));
    }
  }
}

}  // namespace naplet::agent
