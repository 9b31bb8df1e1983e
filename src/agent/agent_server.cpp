#include "agent/agent_server.hpp"

#include "net/frame.hpp"
#include "util/log.hpp"

namespace naplet::agent {

namespace {
constexpr util::Duration kMigrationConnectTimeout = std::chrono::seconds(5);
}  // namespace

// ---------------------------------------------------------------------------
// AgentContext implementation

class AgentServer::ContextImpl final : public AgentContext {
 public:
  ContextImpl(AgentServer* server, AgentId id, std::uint32_t hop)
      : server_(server), id_(std::move(id)), hop_(hop) {}

  [[nodiscard]] const AgentId& self() const override { return id_; }
  [[nodiscard]] const std::string& server_name() const override {
    return server_->config_.name;
  }
  [[nodiscard]] std::uint32_t hop_count() const override { return hop_; }

  void migrate_to(const std::string& server_name) override {
    pending_destination_ = server_name;
  }

  util::Status send_mail(const AgentId& to, util::ByteSpan body) override {
    NAPLET_RETURN_IF_ERROR(server_->access_.check(
        Subject{Subject::Kind::kAgent, id_.name()}, Permission::kSendMail));
    return server_->post_->send(id_, to, body);
  }

  std::optional<Mail> read_mail(util::Duration timeout) override {
    return server_->post_->read(id_, timeout);
  }

  [[nodiscard]] LocationService& locations() override {
    return server_->locations_;
  }

  [[nodiscard]] void* service(const std::string& name) override {
    util::MutexLock lock(server_->mu_);
    auto it = server_->services_.find(name);
    return it == server_->services_.end() ? nullptr : it->second;
  }

  [[nodiscard]] const std::optional<std::string>& pending_destination() const {
    return pending_destination_;
  }
  void clear_pending() { pending_destination_.reset(); }

 private:
  AgentServer* server_;
  AgentId id_;
  std::uint32_t hop_;
  std::optional<std::string> pending_destination_;
};

// ---------------------------------------------------------------------------
// Construction / lifecycle

AgentServer::AgentServer(net::NetworkPtr network, LocationService& locations,
                         AgentServerConfig config)
    : network_(std::move(network)),
      locations_(locations),
      config_(std::move(config)),
      access_(config_.name, config_.realm_key) {}

AgentServer::~AgentServer() { stop(); }

util::Status AgentServer::start() {
  if (started_.exchange(true)) return util::OkStatus();

  auto dgram = network_->bind_datagram(config_.control_port);
  if (!dgram.ok()) return dgram.status();
  bus_ = std::make_unique<ServerBus>(std::move(*dgram), metrics_,
                                     config_.rudp_config);

  post_ = std::make_unique<PostOffice>(*bus_, locations_, config_.name);

  auto listener = network_->listen(config_.migration_port);
  if (!listener.ok()) return listener.status();
  migration_listener_ = std::move(*listener);

  migration_acceptor_ = std::thread([this] { migration_accept_loop(); });

  locations_.register_server(node_info());
  NAPLET_LOG(kInfo, "server") << config_.name << " started: ctrl="
                              << bus_->local_endpoint().to_string()
                              << " migration="
                              << migration_listener_->local_endpoint()
                                     .to_string();
  return util::OkStatus();
}

void AgentServer::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;

  locations_.deregister_server(config_.name);
  if (migration_listener_) migration_listener_->close();
  if (post_) post_->stop();
  if (bus_) bus_->stop();

  if (migration_acceptor_.joinable()) migration_acceptor_.join();

  // Join agent threads. Their blocking reads fail fast once the bus and
  // mailboxes are closed.
  std::map<AgentId, Resident> residents;
  std::vector<std::thread> finished;
  std::vector<std::thread> handlers;
  {
    util::MutexLock lock(mu_);
    residents = std::exchange(residents_, {});
    finished = std::exchange(finished_, {});
    handlers = std::exchange(migration_handlers_, {});
  }
  for (auto& [id, resident] : residents) {
    if (resident.thread.joinable()) resident.thread.join();
  }
  for (auto& t : finished) {
    if (t.joinable()) t.join();
  }
  for (auto& t : handlers) {
    if (t.joinable()) t.join();
  }
}

void AgentServer::set_migrator(ConnectionMigrator* migrator) {
  migrator_ = migrator != nullptr ? migrator : &null_migrator_;
}

void AgentServer::register_service(const std::string& name, void* service) {
  util::MutexLock lock(mu_);
  services_[name] = service;
}

void AgentServer::set_redirector_endpoint(const net::Endpoint& endpoint) {
  {
    util::MutexLock lock(mu_);
    redirector_endpoint_ = endpoint;
  }
  locations_.register_server(node_info());  // refresh directory entry
}

NodeInfo AgentServer::node_info() const {
  NodeInfo info;
  info.server_name = config_.name;
  if (bus_) info.control = bus_->local_endpoint();
  {
    util::MutexLock lock(mu_);
    info.redirector = redirector_endpoint_;
  }
  if (migration_listener_) {
    info.migration = migration_listener_->local_endpoint();
  }
  return info;
}

std::size_t AgentServer::resident_count() const {
  util::MutexLock lock(mu_);
  return residents_.size();
}

// ---------------------------------------------------------------------------
// Launch / admission

util::Status AgentServer::launch(std::unique_ptr<Agent> agent, AgentId id) {
  if (!started_.load() || stopped_.load()) {
    return util::FailedPrecondition("server not running");
  }
  if (agent == nullptr) return util::InvalidArgument("null agent");
  if (id.empty()) return util::InvalidArgument("empty agent id");
  if (!AgentFactory::instance().has(agent->type_name())) {
    return util::FailedPrecondition("agent type '" + agent->type_name() +
                                    "' is not registered with AgentFactory; "
                                    "migration could not reconstruct it");
  }
  {
    util::MutexLock lock(mu_);
    if (residents_.contains(id)) {
      return util::AlreadyExists("agent already resident: " + id.name());
    }
  }
  if (locations_.known(id)) {
    return util::AlreadyExists("agent id already in use: " + id.name());
  }
  admit(std::move(agent), id, /*hop=*/0, /*mailbox=*/{}, /*sessions=*/{});
  return util::OkStatus();
}

void AgentServer::admit(std::unique_ptr<Agent> agent, AgentId id,
                        std::uint32_t hop, std::vector<Mail> mailbox,
                        util::ByteSpan sessions) {
  post_->open_mailbox(id);
  if (!mailbox.empty()) post_->restore_mailbox(id, std::move(mailbox));

  auto context = std::make_shared<ContextImpl>(this, id, hop);
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it != residents_.end() && it->second.thread.joinable()) {
      // A fast bounce (this node -> peer -> back) can re-admit the agent
      // before its departed hop's thread finished transfer_agent cleanup.
      // Move-assigning over a joinable std::thread would terminate; park
      // the old handle for reaping instead.
      finished_.push_back(std::move(it->second.thread));
    }
    Resident resident;
    resident.agent = std::move(agent);
    resident.context = context;
    residents_[id] = std::move(resident);
  }
  if (auto st = land(locations_, *migrator_, id, sessions, node_info());
      !st.ok()) {
    // The agent is admitted already: it runs here without its connections.
    NAPLET_LOG(kError, "server") << "session import failed for " << id.name()
                                 << ": " << st.to_string();
    locations_.register_agent(id, node_info());
  }

  std::thread thread([this, id] { agent_thread_main(id); });
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it != residents_.end() && it->second.context == context) {
      it->second.thread = std::move(thread);
    } else {
      // stop() raced us, or the agent already hopped away (and possibly
      // back, replacing the entry) on this very thread; join it later.
      finished_.push_back(std::move(thread));
    }
  }
  reap_finished_threads();
}

// ---------------------------------------------------------------------------
// Agent hop execution

void AgentServer::agent_thread_main(AgentId id) {
  Agent* agent = nullptr;
  std::shared_ptr<ContextImpl> context;
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it == residents_.end()) return;
    agent = it->second.agent.get();
    context = it->second.context;
  }

  // If this is a post-migration hop, reconnect suspended sessions first so
  // the agent's connections are live when run() resumes.
  if (context->hop_count() > 0) {
    auto status = migrator_->complete_migration(id);
    if (!status.ok()) {
      NAPLET_LOG(kError, "server")
          << "complete_migration failed for " << id.name() << ": "
          << status.to_string();
    }
  }

  try {
    agent->run(*context);
  } catch (const std::exception& e) {
    NAPLET_LOG(kError, "server")
        << "agent " << id.name() << " threw: " << e.what();
    context->clear_pending();
  }

  if (stopped_.load()) return;

  if (context->pending_destination()) {
    const std::string dest = *context->pending_destination();
    auto status = transfer_agent(id, dest);
    if (status.ok()) return;  // the agent now lives elsewhere
    // The failed hop left the agent here with every connection in service
    // (migrator.hpp); ending the agent anyway is this server's policy.
    NAPLET_LOG(kError, "server")
        << "migration of " << id.name() << " to " << dest
        << " failed: " << status.to_string() << "; terminating agent";
  }
  terminate_agent(id);
}

void AgentServer::terminate_agent(const AgentId& id) {
  migrator_->close_all(id);
  post_->close_mailbox(id);
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it != residents_.end()) {
      if (it->second.thread.joinable()) {
        finished_.push_back(std::move(it->second.thread));
      }
      residents_.erase(it);
    }
  }
  // Deregister last: whoever sees the agent gone from the directory
  // (wait_agent_gone) must also see it gone from this server.
  locations_.deregister_agent(id);
}

void AgentServer::reap_finished_threads() {
  std::vector<std::thread> finished;
  {
    util::MutexLock lock(mu_);
    finished = std::exchange(finished_, {});
  }
  for (auto& t : finished) {
    if (!t.joinable()) continue;
    if (t.get_id() == std::this_thread::get_id()) {
      // Can't join ourselves; put it back for stop() / a later reap.
      util::MutexLock lock(mu_);
      finished_.push_back(std::move(t));
    } else {
      t.join();
    }
  }
}

// ---------------------------------------------------------------------------
// Outbound migration

util::Status AgentServer::transfer_agent(const AgentId& id,
                                         const std::string& dest_name) {
  NAPLET_RETURN_IF_ERROR(access_.check(
      Subject{Subject::Kind::kAgent, id.name()}, Permission::kMigrate));
  if (dest_name == config_.name) {
    return util::InvalidArgument("migration to the current server");
  }
  auto dest = locations_.lookup_server(dest_name);
  if (!dest.ok()) return dest.status();

  Agent* agent = nullptr;
  std::shared_ptr<ContextImpl> context;
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it == residents_.end()) return util::NotFound("agent not resident");
    agent = it->second.agent.get();
    context = it->second.context;
  }

  // The hop (migrator.hpp); its transfer step is one TransferFrame exchange.
  NAPLET_RETURN_IF_ERROR(depart(
      locations_, *migrator_, id, [&](util::ByteSpan sessions) {
        TransferFrame transfer;
        transfer.agent = id.name();
        transfer.type_name = agent->type_name();
        transfer.hop = context->hop_count() + 1;
        transfer.state = util::Archive::encode(*agent);
        transfer.sessions.assign(sessions.begin(), sessions.end());
        transfer.mailbox = post_->drain_mailbox(id);
        transfer.token = access_.issue_token(id);
        const util::Bytes frame = util::Archive::encode(transfer);

        auto stream =
            network_->connect(dest->migration, kMigrationConnectTimeout);
        util::Status sent = stream.status();
        if (sent.ok()) sent = net::write_frame(**stream, frame);
        if (sent.ok()) {
          auto reply = net::read_frame(**stream);
          if (!reply.ok()) {
            sent = reply.status();
          } else if (reply->size() != 1 || (*reply)[0] != 1) {
            sent = util::Aborted("destination rejected migration");
          }
        }
        if (!sent.ok()) post_->restore_mailbox(id, std::move(transfer.mailbox));
        return sent;
      }));

  // The agent now lives at the destination; clean up locally — unless it
  // already bounced back here and admit() replaced our entry, in which
  // case the new hop owns the mailbox and the resident slot.
  migrations_out_.fetch_add(1);
  bool stale = false;
  {
    util::MutexLock lock(mu_);
    auto it = residents_.find(id);
    if (it != residents_.end()) {
      if (it->second.context == context) {
        if (it->second.thread.joinable()) {
          finished_.push_back(std::move(it->second.thread));
        }
        residents_.erase(it);
      } else {
        stale = true;
      }
    }
  }
  if (!stale) post_->close_mailbox(id);
  NAPLET_LOG(kInfo, "server") << id.name() << ": " << config_.name << " -> "
                              << dest_name;
  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Inbound migration

void AgentServer::migration_accept_loop() {
  while (!stopped_.load()) {
    auto stream = migration_listener_->accept(std::chrono::milliseconds(200));
    if (!stream.ok()) {
      if (stream.status().code() == util::StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    // Handled inline: transfers are short, and inbound handling never
    // depends on this server's own outbound transfers (those run on agent
    // threads), so there is no deadlock across mutually-migrating servers.
    handle_incoming_migration(std::move(*stream));
  }
}

void AgentServer::handle_incoming_migration(net::StreamPtr stream) {
  if (!stream) return;
  auto frame = net::read_frame(*stream);
  if (!frame.ok()) return;

  auto reject = [&](const std::string& why) {
    NAPLET_LOG(kWarn, "server") << config_.name
                                << " rejecting migration: " << why;
    const std::uint8_t no = 0;
    (void)net::write_frame(*stream, util::ByteSpan(&no, 1));
  };

  TransferFrame transfer;
  if (auto st = util::Archive::decode(
          util::ByteSpan(frame->data(), frame->size()), transfer);
      !st.ok()) {
    reject("malformed transfer frame: " + st.to_string());
    return;
  }

  // Authenticate the sending realm.
  auto subject = access_.authenticate(transfer.token);
  if (!subject.ok() || subject->name != transfer.agent) {
    reject("authentication failed for agent '" + transfer.agent + "'");
    return;
  }

  auto agent = AgentFactory::instance().create(transfer.type_name);
  if (!agent.ok()) {
    reject(agent.status().to_string());
    return;
  }
  if (auto st = util::Archive::decode(
          util::ByteSpan(transfer.state.data(), transfer.state.size()),
          **agent);
      !st.ok()) {
    reject("bad state encoding: " + st.to_string());
    return;
  }

  const std::uint8_t yes = 1;
  if (auto st = net::write_frame(*stream, util::ByteSpan(&yes, 1)); !st.ok()) {
    return;  // sender will retry/terminate; do not admit half-acked
  }

  migrations_in_.fetch_add(1);
  admit(std::move(*agent), AgentId(transfer.agent), transfer.hop,
        std::move(transfer.mailbox),
        util::ByteSpan(transfer.sessions.data(), transfer.sessions.size()));
}

bool wait_agent_gone(const LocationService& locations, const AgentId& id,
                     util::Duration timeout) {
  // Event-driven: the location service wakes waiters on deregistration,
  // so no polling slice bounds the latency here.
  return locations.wait_gone(id, timeout);
}

}  // namespace naplet::agent
