#include "fault/chaos.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/runtime.hpp"
#include "fault/oracle.hpp"
#include "fault/sites.hpp"
#include "net/sim.hpp"
#include "obs/recorder.hpp"
#include "swarm/drain.hpp"
#include "swarm/scheduler.hpp"
#include "util/rng.hpp"

namespace naplet::fault {

namespace {

using namespace std::chrono_literals;

util::ByteSpan span_of(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

std::string node_name(int i) { return "chaos" + std::to_string(i); }

util::Status migrate_agent(nsock::Realm& realm, const agent::AgentId& id,
                           int from, int to) {
  auto& src = realm.node(node_name(from));
  auto& dst = realm.node(node_name(to));
  realm.locations().begin_migration(id);
  // Failures before the destination registration roll the location back
  // (end_migration) so the agent stays findable at the source instead of
  // stranding every lookup on a permanent in-transit entry.
  if (auto st = src.controller().prepare_migration(id); !st.ok()) {
    realm.locations().end_migration(id);
    return st;
  }
  const util::Bytes sessions = src.controller().export_sessions(id);
  if (auto st = dst.controller().import_sessions(
          id, util::ByteSpan(sessions.data(), sessions.size()));
      !st.ok()) {
    realm.locations().end_migration(id);
    return st;
  }
  realm.locations().register_agent(id, dst.server().node_info());
  return dst.controller().complete_migration(id);
}

// The survivable fault envelope the generator draws from. Drops live below
// the reliability layer (rudp retransmits around them), delays stay well
// under the control-response timeout, duplicated control messages exercise
// the protocol's documented re-ack paths, and killed handoff workers are
// absorbed by do_resume's retry loop — so a generated schedule can make a
// run slow and ugly but never impossible.
enum class Template : std::uint64_t {
  kRudpSendDrop = 0,
  kRudpRetransmitDrop,
  kRudpRetransmitDelay,
  kRudpSendFlip,
  kRudpSackDrop,
  kRudpFastRetxDrop,
  kRudpFecDrop,
  kCtrlPreSendDup,
  kCtrlPreSendDelay,
  kCtrlOnRecvDelay,
  kRedirectorKill,
  kCount,
};

constexpr const char* kDupableCtrl[] = {"suspend", "suspend_ack", "sus_res"};

Rule make_rule(util::Rng& rng) {
  Rule rule;
  switch (static_cast<Template>(
      rng.next_below(static_cast<std::uint64_t>(Template::kCount)))) {
    case Template::kRudpSendDrop:
      rule.site = "rudp.send";
      rule.hit = 1 + rng.next_below(8);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpRetransmitDrop:
      rule.site = "rudp.retransmit";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpRetransmitDelay:
      rule.site = "rudp.retransmit";
      rule.hit = 1 + rng.next_below(4);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(25));
      break;
    case Template::kRudpSendFlip:
      // A flipped bit anywhere in the frame fails the peer's CRC check:
      // corruption degrades to loss, which retransmit/FEC must absorb.
      rule.site = rng.bernoulli(0.5) ? "rudp.send" : "rudp.retransmit";
      rule.hit = 1 + rng.next_below(6);
      rule.count = 1 + rng.next_below(2);
      rule.action = Action::kCorrupt;
      break;
    case Template::kRudpSackDrop:
      // Starve the fast-retransmit gap detector: the RTO timer must still
      // recover delivery on its own.
      rule.site = "rudp.sack";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(3);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpFastRetxDrop:
      rule.site = "rudp.fast_retx";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDrop;
      break;
    case Template::kRudpFecDrop:
      // Lost parity only removes a repair opportunity, never data.
      rule.site = "rudp.fec";
      rule.hit = 1 + rng.next_below(4);
      rule.count = 1 + rng.next_below(3);
      rule.action = Action::kDrop;
      break;
    case Template::kCtrlPreSendDup:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".pre_send";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDuplicate;
      break;
    case Template::kCtrlPreSendDelay:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".pre_send";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(40));
      break;
    case Template::kCtrlOnRecvDelay:
      rule.site = std::string("ctrl.") + kDupableCtrl[rng.next_below(3)] +
                  ".on_recv";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kDelay;
      rule.delay_ms = 5 + static_cast<std::uint32_t>(rng.next_below(40));
      break;
    case Template::kRedirectorKill:
      rule.site = "redirector.handoff.accept";
      rule.hit = 1 + rng.next_below(2);
      rule.action = Action::kKill;
      break;
    case Template::kCount:
      break;  // unreachable
  }
  return rule;
}

}  // namespace

std::string_view to_string(Scenario scenario) noexcept {
  switch (scenario) {
    case Scenario::kSingleMigration: return "single";
    case Scenario::kDoubleSequential: return "double";
    case Scenario::kDoubleOverlapped: return "overlap";
    case Scenario::kCrashSuspend: return "crash-suspend";
    case Scenario::kCrashResume: return "crash-resume";
    case Scenario::kCrashDouble: return "crash-double";
    case Scenario::kDrainPartition: return "drain-partition";
    case Scenario::kCascadeRebalance: return "cascade-rebalance";
    case Scenario::kGroupCrashCommit: return "group-crash-commit";
    case Scenario::kGroupPeerRefusal: return "group-peer-refusal";
  }
  return "?";
}

std::string ChaosResult::line(const ChaosCase& chaos_case) const {
  std::ostringstream out;
  out << "seed=" << chaos_case.seed << " scenario="
      << to_string(chaos_case.scenario) << " plan=\""
      << chaos_case.plan.to_string() << "\" verdict="
      << (pass ? "PASS" : "FAIL");
  if (!pass) out << " failure=\"" << failure << "\"";
  return out.str();
}

ChaosCase generate_case(std::uint64_t seed, bool light) {
  util::Rng rng(seed);
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario =
      static_cast<Scenario>(rng.next_below(kGeneratedScenarioCount));
  chaos_case.forward_msgs = light ? 6 : 12;
  chaos_case.reverse_msgs = light ? 4 : 8;
  chaos_case.plan.seed = seed;
  const std::uint64_t rules = 1 + rng.next_below(light ? 2 : 4);
  for (std::uint64_t i = 0; i < rules; ++i) {
    chaos_case.plan.rules.push_back(make_rule(rng));
  }
  return chaos_case;
}

ChaosCase make_case(std::uint64_t seed, Scenario scenario, bool light,
                    bool recovery) {
  if (static_cast<int>(scenario) < kGeneratedScenarioCount) {
    ChaosCase chaos_case = generate_case(seed, light);
    chaos_case.scenario = scenario;
    return chaos_case;
  }
  const bool group = is_group_scenario(scenario);
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario = scenario;
  if (is_crash_scenario(scenario)) chaos_case.recovery = recovery;
  chaos_case.forward_msgs = group ? (light ? 4 : 8) : (light ? 6 : 12);
  chaos_case.reverse_msgs = group ? (light ? 3 : 6) : (light ? 4 : 8);
  chaos_case.plan.seed = seed;
  Rule rule;
  switch (scenario) {
    case Scenario::kCrashSuspend:
      // Every SUS_ACK of the doomed incarnation dies (the resend cadence
      // would otherwise get a re-ack through), so the active side's
      // suspend handshake reliably times out before the harness pulls the
      // plug.
      rule.site = "ctrl.suspend_ack.pre_send";
      rule.count = 1000;  // all hits until disarm (which follows the kill)
      rule.action = Action::kKill;
      break;
    case Scenario::kCrashResume:
    case Scenario::kCrashDouble:
      // Every handoff worker of the doomed incarnation dies: the mover's
      // RESUME is in flight, unanswered, when the controller is killed.
      rule.site = "redirector.handoff.accept";
      rule.count = 1000;
      rule.action = Action::kKill;
      break;
    case Scenario::kDrainPartition:
      // One suspend in the second wave fails; the drain coordinator's
      // capped-backoff retry must land it without stalling the sweep.
      rule.site = "swarm.drain.suspend";
      rule.hit = 2;
      rule.action = Action::kError;
      break;
    case Scenario::kCascadeRebalance:
      // The destination refuses the first batch admission outright: the
      // scheduler must split the batch and reroute the rear half to the
      // fallback host (the cascading rebalance).
      rule.site = "swarm.batch.admit";
      rule.action = Action::kError;
      break;
    case Scenario::kGroupCrashCommit:
      // Kill the mover's controller in the window between the
      // group-prepare and group-commit journal records; recovery must
      // resolve the whole group one way (roll forward: every peer already
      // sealed).
      rule.site = "ctrl.group.commit";
      rule.action = Action::kKill;
      break;
    default:  // kGroupPeerRefusal
      // The first group SUS the peer host processes is refused; the
      // coordinator must roll the ENTIRE group back under send load.
      rule.site = "ctrl.group.prepare";
      rule.action = Action::kError;
      break;
  }
  chaos_case.plan.rules.push_back(rule);
  return chaos_case;
}

namespace {

/// A case's journal directory, empty at the start of the case and removed
/// when it ends. The pid is part of the name because the same pinned case
/// runs in several processes at once under `ctest -j` (recovery_test next
/// to crash_smoke_s3 and crash_smoke_s5); a shared directory let one run
/// wipe or replay another's journal.
class CaseJournalDir {
 public:
  explicit CaseJournalDir(const ChaosCase& chaos_case)
      : path_((std::filesystem::temp_directory_path() /
               ("naplet-chaos-" + std::to_string(chaos_case.seed) + "-" +
                std::string(to_string(chaos_case.scenario)) + "-" +
                std::to_string(::getpid())))
                  .string()) {
    remove();
  }
  ~CaseJournalDir() { remove(); }
  CaseJournalDir(const CaseJournalDir&) = delete;
  CaseJournalDir& operator=(const CaseJournalDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void remove() const {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  std::string path_;
};

/// The node whose durable journal a crash choreography replays: the
/// killed server host in the crash scenarios, the mover's host in the
/// group crash; -1 when the case kills no node.
int journal_node(const ChaosCase& chaos_case) {
  if (is_crash_scenario(chaos_case.scenario)) return 1;
  if (chaos_case.scenario == Scenario::kGroupCrashCommit) return 0;
  return -1;
}

/// Node i's config: the shared rudp base, then the scenario family's
/// overrides. Crash cases without recovery get the paper's single-shot
/// protocol with tight timeouts, so the expected failure is bounded, never
/// a hang. Only the journal node (journal_node) is durable.
nsock::NodeConfig node_config(const ChaosCase& chaos_case, int i,
                              const std::string& journal_dir) {
  nsock::NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval = 15ms;
  config.server.rudp_config.max_attempts = 40;
  // Decorrelated but reproducible retransmit jitter per node.
  config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;
  // XOR-FEC on the control channel keeps the rudp.sack / rudp.fast_retx
  // / rudp.fec fault sites live under the oracles.
  config.server.rudp_config.repair = net::LossRepair::kXorFec;

  const bool crash = is_crash_scenario(chaos_case.scenario);
  const bool group = is_group_scenario(chaos_case.scenario);
  const bool swarm = is_swarm_scenario(chaos_case.scenario);
  if (!crash && !group && !swarm) return config;

  nsock::ControllerConfig& ctrl = config.controller;
  if (!swarm) {
    ctrl.ctrl_response_timeout = 1s;
    ctrl.drain_timeout = 1s;
  }
  if (crash && !chaos_case.recovery) {
    ctrl.resume_max_attempts = 1;
    ctrl.resume_timeout = 3s;
    return config;
  }
  // Recovery-grade resume patience: the swarm partition keeps RESUME
  // retrying until the heal, and crash recovery and group rollback resume
  // through a restarted or rolled-back redirector.
  ctrl.resume_max_attempts = 25;
  ctrl.resume_retry_backoff = 50ms;
  ctrl.resume_retry_cap = 400ms;
  ctrl.resume_timeout = 8s;
  if (swarm) return config;

  ctrl.suspend_rollback = true;
  ctrl.redirector_leases.enabled = true;
  ctrl.redirector_leases.ttl = 3s;
  if (crash) {
    ctrl.failure_recovery.enabled = true;
    ctrl.failure_recovery.probe_interval = 500ms;
    ctrl.failure_recovery.probe_timeout = 200ms;
    // The planned kill must not race the death detector: recovery here is
    // journal replay serving the peer's retries, not probe-driven abort.
    ctrl.failure_recovery.miss_threshold = 1000;
  } else {
    ctrl.group_suspend = true;
    ctrl.group_prepare_timeout = 3s;
  }
  if (i == journal_node(chaos_case)) {
    ctrl.durability.enabled = true;
    ctrl.durability.dir = journal_dir;
    ctrl.durability.compact_every = 8;
  }
  return config;
}

/// Stage executor over a live realm: serialize exports the batch's agents
/// from the source host, transfer is a no-op (the sim network "ships" the
/// blobs instantly), reactivate imports at the batch's CURRENT destination
/// and completes the migration — so a batch rerouted by an admission
/// refusal cleanly re-imports at the fallback host.
class RealmStageExecutor final : public swarm::StageExecutor {
 public:
  RealmStageExecutor(nsock::Realm& realm, int source, bool prepare)
      : realm_(realm), source_(source), prepare_(prepare) {}

  void serialize(const swarm::MigrationBatch& batch, Done done) override {
    auto& src = realm_.node(node_name(source_));
    for (const agent::AgentId& id : batch.agents) {
      realm_.locations().begin_migration(id);
      if (prepare_) {
        if (auto st = src.controller().prepare_migration(id); !st.ok()) {
          realm_.locations().end_migration(id);
          done(st);
          return;
        }
      }
      blobs_[id.name()] = src.controller().export_sessions(id);
    }
    done(util::OkStatus());
  }

  void transfer(const swarm::MigrationBatch& batch, Done done) override {
    (void)batch;
    done(util::OkStatus());
  }

  void reactivate(const swarm::MigrationBatch& batch, Done done) override {
    auto& dst = realm_.node(batch.destination);
    for (const agent::AgentId& id : batch.agents) {
      auto it = blobs_.find(id.name());
      if (it == blobs_.end()) {
        done(util::Internal("no exported state for " + id.name()));
        return;
      }
      if (auto st = dst.controller().import_sessions(
              id, util::ByteSpan(it->second.data(), it->second.size()));
          !st.ok()) {
        realm_.locations().end_migration(id);
        done(st);
        return;
      }
      blobs_.erase(it);
      realm_.locations().register_agent(id, dst.server().node_info());
      if (auto st = dst.controller().complete_migration(id); !st.ok()) {
        done(st);
        return;
      }
    }
    done(util::OkStatus());
  }

 private:
  nsock::Realm& realm_;
  int source_;
  bool prepare_;
  // The scheduler drives this executor from one pump at a time; no lock.
  std::map<std::string, util::Bytes> blobs_;
};

/// One case, end to end, over a three-node sim realm: chaos-cli on chaos0
/// holds k connections to chaos-srv on chaos1 (k = 3 for the group
/// scenarios, whose barrier is about suspending several connections as
/// one atomic cut; 1 otherwise). setup() builds that world, traffic()
/// sends the pre-fault load, one choreography per scenario family stages
/// Phase B and its scenario-specific oracles, and judge() applies the
/// shared ones. Every step returns false once fail() has recorded why.
struct Harness {
  explicit Harness(const ChaosCase& c)
      : chaos_case(c), journal(c), net(c.seed) {}

  ChaosResult run() {
    injector.disarm();
    if (setup() && traffic() && choreograph() && judge()) result.pass = true;
    injector.disarm();
    return result;
  }

  // Ledger stream ids of connection i's two directions.
  static std::uint64_t fwd(std::size_t i) { return 2 * i; }
  static std::uint64_t rev(std::size_t i) { return 2 * i + 1; }

  bool fail(const std::string& why) {
    result.pass = false;
    result.failure = why;
    // Snapshot every live session's ring before teardown destroys them:
    // the dump is the execution history that led to the oracle tripping.
    result.recorder_dump = obs::dump_all();
    return false;
  }

  nsock::SocketController& ctrl(int i) {
    return realm.node(node_name(i)).controller();
  }
  agent::NodeInfo node_info(int i) {
    return realm.node(node_name(i)).server().node_info();
  }
  /// The controller hosting `id` now, per the location directory.
  nsock::SocketController* host_of(const agent::AgentId& id) {
    const auto location = realm.locations().try_lookup(id);
    if (!location.has_value()) return nullptr;
    return &realm.node(location->server_name).controller();
  }

  /// Send `body` and, once it entered the stream, record it as sent.
  util::Status send(nsock::Session& session, std::uint64_t stream,
                    const std::string& body, util::Duration timeout) {
    util::Status st = session.send(span_of(body), timeout);
    if (st.ok()) ledger.record_sent(stream, span_of(body));
    return st;
  }
  /// Pop one message and record it as delivered.
  util::Status recv(nsock::Session& session, std::uint64_t stream,
                    util::Duration timeout) {
    auto got = session.recv(timeout);
    if (!got.ok()) return got.status();
    ledger.record_delivered(
        stream, got->seq, util::ByteSpan(got->body.data(), got->body.size()));
    return util::OkStatus();
  }

  /// Kill node i — Realm::remove_node, which sends no protocol messages —
  /// and stand it up again under the same name, re-registering `resident`
  /// there. Faults are disarmed at the moment of death: they belong to the
  /// doomed incarnation. The new controller replays its durable journal
  /// unless this is a crash case run without recovery.
  util::Status crash_restart(int i, const agent::AgentId& resident) {
    realm.remove_node(node_name(i));
    injector.disarm();
    auto& node = realm.add_node(node_name(i), net.add_node(node_name(i)),
                                node_config(chaos_case, i, journal.path()));
    NAPLET_RETURN_IF_ERROR(node.start());
    if (chaos_case.recovery || !is_crash_scenario(chaos_case.scenario)) {
      NAPLET_RETURN_IF_ERROR(node.controller().recover());
    }
    realm.locations().register_agent(resident, node.server().node_info());
    return util::OkStatus();
  }

  bool setup();
  bool traffic();
  bool choreograph();
  bool migrate();
  bool crash();
  bool swarm();
  bool group_crash();
  bool group_refusal();
  bool judge();
  bool judge_delivery();

  const ChaosCase& chaos_case;
  Injector& injector = Injector::instance();
  const CaseJournalDir journal;
  net::SimNet net;
  nsock::Realm realm;
  const agent::AgentId cli{"chaos-cli"};
  const agent::AgentId srv{"chaos-srv"};
  // Connection i's endpoints, re-looked-up after Phase B.
  std::vector<nsock::SessionPtr> clients, servers;
  std::vector<std::uint64_t> conns;
  DeliveryLedger ledger;
  ChaosResult result;
  // false when the choreography expected the migration to fail (crash
  // without recovery): only FSM legality is then judged.
  bool live = true;
  std::string note;  // scenario-specific counters for result.stats
};

bool Harness::setup() {
  net.set_default_link(net::LinkConfig{.latency = 1ms});
  for (int i = 0; i < 3; ++i) {
    realm.add_node(node_name(i), net.add_node(node_name(i)),
                   node_config(chaos_case, i, journal.path()));
  }
  if (auto st = realm.start(); !st.ok()) {
    return fail("realm start: " + st.to_string());
  }
  realm.locations().register_agent(cli, node_info(0));
  realm.locations().register_agent(srv, node_info(1));
  if (auto st = ctrl(1).listen(srv); !st.ok()) {
    return fail("listen: " + st.to_string());
  }
  const int pairs = is_group_scenario(chaos_case.scenario) ? 3 : 1;
  for (int i = 0; i < pairs; ++i) {
    auto client = ctrl(0).connect(cli, srv);
    if (!client.ok()) return fail("connect: " + client.status().to_string());
    auto server = ctrl(1).accept(srv, 5s);
    if (!server.ok()) return fail("accept: " + server.status().to_string());
    clients.push_back(*client);
    servers.push_back(*server);
    conns.push_back((*client)->conn_id());
  }
  return true;
}

// Phase A — traffic. Forward messages are delivered live; reverse messages
// are left undrained so they ride the suspension buffer across the
// migration (the resume replay path the oracles watch).
bool Harness::traffic() {
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const std::string tag = std::to_string(i) + ".";
    for (int j = 0; j < chaos_case.forward_msgs; ++j) {
      const std::string body = "f" + tag + std::to_string(j);
      if (auto st = send(*clients[i], fwd(i), body, 2s); !st.ok()) {
        return fail("pre-fault send: " + st.to_string());
      }
    }
    for (int j = 0; j < chaos_case.forward_msgs; ++j) {
      if (auto st = recv(*servers[i], fwd(i), 2s); !st.ok()) {
        return fail("pre-fault recv: " + st.to_string());
      }
    }
    for (int j = 0; j < chaos_case.reverse_msgs; ++j) {
      const std::string body = "r" + tag + std::to_string(j);
      if (auto st = send(*servers[i], rev(i), body, 2s); !st.ok()) {
        return fail("reverse send: " + st.to_string());
      }
    }
  }
  // Let the reverse frames reach the client's stream so the suspend drain
  // pulls them into the migrating session's buffer.
  std::this_thread::sleep_for(30ms);
  return true;
}

// Phase B — one choreography per scenario family.
bool Harness::choreograph() {
  const Scenario scenario = chaos_case.scenario;
  if (is_crash_scenario(scenario)) return crash();
  if (is_swarm_scenario(scenario)) return swarm();
  if (scenario == Scenario::kGroupCrashCommit) return group_crash();
  if (scenario == Scenario::kGroupPeerRefusal) return group_refusal();
  return migrate();
}

/// The generated scenarios: the migrations themselves, under the armed plan.
bool Harness::migrate() {
  injector.arm(chaos_case.plan);
  util::Status cli_migrate = util::OkStatus();
  util::Status srv_migrate = util::OkStatus();
  if (chaos_case.scenario == Scenario::kDoubleOverlapped) {
    std::thread mover([&] { cli_migrate = migrate_agent(realm, cli, 0, 2); });
    srv_migrate = migrate_agent(realm, srv, 1, 0);
    mover.join();
  } else {
    cli_migrate = migrate_agent(realm, cli, 0, 2);
    if (chaos_case.scenario == Scenario::kDoubleSequential) {
      srv_migrate = migrate_agent(realm, srv, 1, 0);
    }
  }
  injector.disarm();
  if (!cli_migrate.ok()) {
    return fail("client migration: " + cli_migrate.to_string());
  }
  if (!srv_migrate.ok()) {
    return fail("server migration: " + srv_migrate.to_string());
  }
  return true;
}

/// The crash-restart choreography behind Scenario::kCrash*. The server
/// host (chaos1) is killed and stood up again; with recovery on, the new
/// controller replays its durable journal and serves the peer's retries,
/// and the delivery ledger must still balance exactly once ACROSS THE
/// RESTART. With recovery off, the same staging must fail CLEANLY: a
/// bounded error and an abortable session, never a hang.
bool Harness::crash() {
  util::Status staged = util::OkStatus();  // the step expected to fail
                                           // when recovery is off
  if (chaos_case.scenario == Scenario::kCrashSuspend) {
    // The suspend handshake dies (every SUS_ACK killed), then the
    // server-side controller does. The first migration attempt must
    // fail; after the restart the retry must find the journaled
    // passively-suspended session and complete.
    injector.arm(chaos_case.plan);
    if (migrate_agent(realm, cli, 0, 2).ok()) {
      return fail("crash-suspend: first migration succeeded despite the "
                  "killed SUS_ACKs");
    }
    // The failed attempt left the location pending (begin_migration):
    // cancel by re-registering at the source.
    realm.locations().register_agent(cli, node_info(0));
    if (auto st = crash_restart(1, srv); !st.ok()) {
      return fail("restart: " + st.to_string());
    }
    staged = migrate_agent(realm, cli, 0, 2);
  } else {
    // Stage the client's migration cleanly up to the resume, then let the
    // mover's RESUME hit a redirector whose handoff workers die — and
    // kill the controller while the RESUME hangs unanswered.
    realm.locations().begin_migration(cli);
    if (auto st = ctrl(0).prepare_migration(cli); !st.ok()) {
      return fail("prepare: " + st.to_string());
    }
    const util::Bytes blob = ctrl(0).export_sessions(cli);
    nsock::SocketController& dst = ctrl(2);
    if (auto st = dst.import_sessions(
            cli, util::ByteSpan(blob.data(), blob.size()));
        !st.ok()) {
      return fail("import: " + st.to_string());
    }
    realm.locations().register_agent(cli, node_info(2));
    injector.arm(chaos_case.plan);
    std::thread mover([&] { staged = dst.complete_migration(cli); });
    std::this_thread::sleep_for(150ms);
    const util::Status restarted = crash_restart(1, srv);
    mover.join();
    if (!restarted.ok()) return fail("restart: " + restarted.to_string());
    if (chaos_case.scenario == Scenario::kCrashDouble && chaos_case.recovery &&
        staged.ok()) {
      // A second, fault-free migration on top of the recovered state: the
      // server hops off the restarted host.
      if (auto st = migrate_agent(realm, srv, 1, 0); !st.ok()) {
        return fail("post-recovery server migration: " + st.to_string());
      }
    }
  }
  injector.disarm();

  if (chaos_case.recovery) {
    if (!staged.ok()) {
      return fail("post-restart migration: " + staged.to_string());
    }
    return true;
  }
  // The control run: the staged step must fail with a bounded error, and
  // the surviving half-open session must be abortable — a blocked
  // application must see ABORTED, not a hang.
  if (staged.ok()) return fail("staging succeeded with recovery disabled");
  nsock::SessionPtr leftover = ctrl(2).session_by_id(conns[0]);
  if (leftover != nullptr) {
    ctrl(2).abort(leftover);
    if (leftover->state() != nsock::ConnState::kClosed) {
      return fail("abort left the session in " +
                  std::string(nsock::to_string(leftover->state())));
    }
  }
  live = false;
  note = "staged failure (expected): " + staged.to_string();
  return true;
}

/// The swarm choreography behind Scenario::kDrainPartition and
/// Scenario::kCascadeRebalance: the server agent plus a handful of
/// passenger agents are all moved off chaos1 through the drain coordinator
/// + batch scheduler instead of one-by-one migrate calls.
bool Harness::swarm() {
  std::vector<agent::AgentId> fleet{srv};
  for (int i = 0; i < 4; ++i) {
    const agent::AgentId pax("chaos-pax" + std::to_string(i));
    realm.locations().register_agent(pax, node_info(1));
    fleet.push_back(pax);
  }

  injector.arm(chaos_case.plan);
  std::jthread healer;
  if (chaos_case.scenario == Scenario::kDrainPartition) {
    // The destination cannot reach the peer's host while the batch lands;
    // the resume retry loop must absorb the outage until the heal.
    net.set_partition(node_name(2), node_name(0), true);
    healer = std::jthread([this] {
      std::this_thread::sleep_for(300ms);
      net.set_partition(node_name(2), node_name(0), false);
    });
  }

  // Phase drain — mass-suspend the source host in latency-tuned waves.
  // Wave suspends run inline; the injected suspend failure (scenario 6's
  // plan) must be retried, not dropped.
  swarm::DrainConfig drain_config;
  drain_config.max_wave = 2;  // multiple waves even for this small fleet
  nsock::SocketController& source = ctrl(1);
  swarm::DrainCoordinator drain(
      drain_config, [&source](const agent::AgentId& id,
                              std::function<void(util::Status)> done) {
        done(source.prepare_migration(id));
      });
  drain.drain(fleet);
  if (!drain.wait(10s)) return fail("drain did not complete");
  const swarm::DrainReport drain_report = drain.report();
  if (drain_report.stragglers != 0) {
    return fail("drain left " + std::to_string(drain_report.stragglers) +
                " stragglers");
  }

  // Phase rebalance — batch the drained fleet to chaos2; chaos0 is the
  // fallback for refused admissions (the cascade).
  swarm::SchedulerConfig sched_config;
  sched_config.max_batch = 5;
  sched_config.fallback_destination = node_name(0);
  RealmStageExecutor executor(realm, /*source=*/1, /*prepare=*/false);
  swarm::MigrationScheduler scheduler(sched_config, executor);
  std::vector<swarm::AgentPlan> plans;
  plans.reserve(fleet.size());
  for (const agent::AgentId& id : fleet) {
    plans.push_back(swarm::AgentPlan{id, node_name(2)});
  }
  scheduler.run(plans);
  const bool finished = scheduler.wait(15s);
  if (healer.joinable()) healer.join();
  injector.disarm();
  if (!finished) return fail("scheduler did not complete");
  const swarm::SchedulerReport sched_report = scheduler.report();
  if (sched_report.failed != 0) {
    return fail("scheduler failed " + std::to_string(sched_report.failed) +
                " agents");
  }
  if (sched_report.migrated != fleet.size()) {
    return fail("scheduler migrated " +
                std::to_string(sched_report.migrated) + " of " +
                std::to_string(fleet.size()));
  }
  if (chaos_case.scenario == Scenario::kCascadeRebalance &&
      sched_report.rerouted == 0) {
    return fail("cascade-rebalance: admission refusal did not reroute "
                "any agents");
  }
  note = "drain: waves=" + std::to_string(drain_report.waves) +
         " retries=" + std::to_string(drain_report.retries) +
         " | scheduler: batches=" + std::to_string(sched_report.batches) +
         " exchanges=" + std::to_string(sched_report.handoff_exchanges) +
         " rerouted=" + std::to_string(sched_report.rerouted);
  return true;
}

/// Scenario::kGroupCrashCommit: the whole connection set is swept through
/// the atomic group barrier and the mover's host (the one holding the
/// journal) dies between the group-prepare and group-commit records.
/// Recovery must be all-or-nothing and the declared cut causally
/// consistent.
bool Harness::group_crash() {
  injector.arm(chaos_case.plan);
  if (migrate_agent(realm, cli, 0, 2).ok()) {
    return fail("migration succeeded despite the kill between group "
                "prepare and commit");
  }
  if (auto st = crash_restart(0, cli); !st.ok()) {
    return fail("restart: " + st.to_string());
  }

  // The all-or-nothing oracle: after recover() the agent must never be
  // left with a SUSPENDED/ESTABLISHED mix. The dangling prepare rolls
  // forward (every peer had sealed), so the deterministic outcome is ALL
  // suspended.
  const int members = static_cast<int>(conns.size());
  int suspended = 0, established = 0;
  for (const std::uint64_t conn : conns) {
    const nsock::SessionPtr session = ctrl(0).session_by_id(conn);
    if (session == nullptr) {
      return fail("conn " + std::to_string(conn) + " lost across the crash");
    }
    const nsock::ConnState st = session->state();
    if (st == nsock::ConnState::kSuspended) {
      ++suspended;
    } else if (st == nsock::ConnState::kEstablished) {
      ++established;
    }
  }
  if (suspended != 0 && established != 0) {
    return fail("all-or-nothing violated: " + std::to_string(suspended) +
                " suspended, " + std::to_string(established) +
                " established after recover()");
  }
  if (suspended != members) {
    return fail("dangling group prepare did not roll forward: " +
                std::to_string(suspended) + "/" + std::to_string(members) +
                " suspended");
  }

  // The cut the group declared must be causally consistent; the peers
  // recorded each member's mark at passive suspension, and the marks
  // survived the mover's crash.
  std::vector<DeliveryLedger::CutPoint> cut;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const std::uint64_t mark = servers[i]->flags().peer_declared_seq;
    if (mark == 0) {
      return fail("peer of conn " + std::to_string(conns[i]) +
                  " holds no declared group mark");
    }
    cut.push_back({fwd(i), mark});
  }
  if (auto st = ledger.check_consistent_cut(cut); !st.ok()) {
    return fail(st.to_string());
  }

  // Roll the interrupted migration forward to its destination.
  if (auto st = migrate_agent(realm, cli, 0, 2); !st.ok()) {
    return fail("post-recovery migration: " + st.to_string());
  }
  return true;
}

/// Scenario::kGroupPeerRefusal: one peer refuses mid-prepare under send
/// load; the ENTIRE group must roll back with blocked senders waking, and
/// a fault-free retry under racing senders must declare a consistent cut.
bool Harness::group_refusal() {
  const std::size_t members = conns.size();
  nsock::SocketController& mover = ctrl(0);
  // Concurrent send pressure on every member while the first group SUS
  // the peer host processes is refused.
  std::vector<util::Status> load_status(members, util::OkStatus());
  std::vector<std::jthread> load;  // an early fail() still joins them
  for (std::size_t i = 0; i < members; ++i) {
    load.emplace_back([&, i] {
      for (int j = 0; j < 8; ++j) {
        const std::string body =
            "l" + std::to_string(i) + "." + std::to_string(j);
        if (auto st = send(*clients[i], fwd(i), body, 10s); !st.ok()) {
          load_status[i] = st;
          return;
        }
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  std::this_thread::sleep_for(10ms);

  injector.arm(chaos_case.plan);
  const util::Status refused = mover.prepare_migration(cli);
  injector.disarm();
  if (refused.ok()) {
    return fail("group prepare succeeded despite the refused peer");
  }

  // Full-group rollback oracle: every member returns to ESTABLISHED
  // (never a mix), and the senders blocked across the rollback wake and
  // finish cleanly.
  for (const nsock::SessionPtr& client : clients) {
    if (auto st = await_established(*client, 8s); !st.ok()) {
      return fail("rollback: " + st.to_string());
    }
  }
  for (auto& t : load) t.join();
  for (const util::Status& st : load_status) {
    if (!st.ok()) return fail("sender under rollback: " + st.to_string());
  }
  const std::uint64_t rollbacks = mover.group_rollbacks();
  if (rollbacks == 0) return fail("refusal did not count a group rollback");
  note = "group: rollbacks=" + std::to_string(rollbacks);

  // Retry the sweep fault-free with senders RACING the freeze: the
  // consistent-cut oracle proves no send slipped past another member's
  // pinned mark. Sends that time out never entered the stream (the freeze
  // parks them before the write), so only OK sends are recorded.
  std::atomic<bool> stop{false};
  std::vector<util::Status> racer_status(members, util::OkStatus());
  std::vector<std::jthread> racers;
  for (std::size_t i = 0; i < members; ++i) {
    racers.emplace_back([&, i] {
      int j = 0;
      while (!stop.load()) {
        const std::string body =
            "g" + std::to_string(i) + "." + std::to_string(j);
        const util::Status st = send(*clients[i], fwd(i), body, 300ms);
        if (st.ok()) {
          ++j;
        } else if (st.code() != util::StatusCode::kTimeout) {
          racer_status[i] = st;
          return;
        }
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  std::this_thread::sleep_for(10ms);
  realm.locations().begin_migration(cli);
  // Every failure from here on leaves the agent findable at its source.
  const auto abandon = [&](const std::string& why) {
    realm.locations().end_migration(cli);
    return fail(why);
  };
  const util::Status prepared = mover.prepare_migration(cli);
  stop.store(true);
  for (auto& t : racers) t.join();
  if (!prepared.ok()) {
    return abandon("fault-free retry: " + prepared.to_string());
  }
  for (const util::Status& st : racer_status) {
    if (!st.ok()) return abandon("racing sender: " + st.to_string());
  }

  std::vector<DeliveryLedger::CutPoint> cut;
  for (std::size_t i = 0; i < members; ++i) {
    if (clients[i]->state() != nsock::ConnState::kSuspended) {
      return abandon("conn " + std::to_string(conns[i]) +
                     " not SUSPENDED after the group prepare: " +
                     std::string(nsock::to_string(clients[i]->state())));
    }
    cut.push_back({fwd(i), clients[i]->sent_seq()});
  }
  if (auto st = ledger.check_consistent_cut(cut); !st.ok()) {
    return abandon(st.to_string());
  }

  // Ship the suspended group to its destination.
  const util::Bytes blob = mover.export_sessions(cli);
  if (auto st = ctrl(2).import_sessions(
          cli, util::ByteSpan(blob.data(), blob.size()));
      !st.ok()) {
    return abandon("import: " + st.to_string());
  }
  realm.locations().register_agent(cli, node_info(2));
  if (auto st = ctrl(2).complete_migration(cli); !st.ok()) {
    return fail("complete: " + st.to_string());
  }
  return true;
}

// Phase C — judgement. Faults have ceased; the liveness watchdog bounds
// re-establishment, then the ledger must balance exactly once.
bool Harness::judge_delivery() {
  nsock::SocketController* cli_host = host_of(cli);
  nsock::SocketController* srv_host = host_of(srv);
  if (cli_host == nullptr || srv_host == nullptr) {
    return fail("agent lost across migration");
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    clients[i] = cli_host->session_by_id(conns[i]);
    servers[i] = srv_host->session_by_id(conns[i]);
    if (!clients[i] || !servers[i]) {
      return fail("session lost across migration");
    }
    if (auto st = await_established(*clients[i], 8s); !st.ok()) {
      return fail(st.to_string());
    }
    if (auto st = await_established(*servers[i], 8s); !st.ok()) {
      return fail(st.to_string());
    }
  }

  for (std::size_t i = 0; i < conns.size(); ++i) {
    // Drain the reverse stream until it goes quiet, so a duplicated
    // replay of the parked frames shows up in the ledger.
    while (recv(*clients[i], rev(i), 500ms).ok()) {
    }
    // Forward frames the choreography sent under load may still be
    // queued; a duplicate among them is popped by the post traffic below.
    while (ledger.delivered_count(fwd(i)) < ledger.sent_count(fwd(i)) &&
           recv(*servers[i], fwd(i), 2s).ok()) {
    }
    // Post-fault sanity traffic proves the resumed connection still
    // carries data both ways.
    for (int j = 0; j < 2; ++j) {
      const std::string body =
          "post" + std::to_string(i) + "." + std::to_string(j);
      if (auto st = send(*clients[i], fwd(i), body, 2s); !st.ok()) {
        return fail("post-fault send: " + st.to_string());
      }
      if (auto st = recv(*servers[i], fwd(i), 2s); !st.ok()) {
        return fail("post-fault recv: " + st.to_string());
      }
    }
  }
  if (auto st = ledger.check(/*require_complete=*/true); !st.ok()) {
    return fail(st.to_string());
  }
  return true;
}

bool Harness::judge() {
  if (live && !judge_delivery()) return false;
  if (auto st = check_fsm_trace(injector.transitions()); !st.ok()) {
    return fail(st.to_string());
  }
  result.net_datagrams_dropped = net.counters().datagrams_dropped;
  result.stats = note;
  if (live) {
    const auto cli_stats = host_of(cli)->stats();
    const auto srv_stats = host_of(srv)->stats();
    result.ctrl_retransmissions =
        cli_stats.ctrl_retransmissions + srv_stats.ctrl_retransmissions;
    if (!result.stats.empty()) result.stats += "\n";
    result.stats += "client: " + cli_stats.to_string() +
                    "\nserver: " + srv_stats.to_string();
  }
  return true;
}

}  // namespace

ChaosResult run_case(const ChaosCase& chaos_case) {
  return Harness(chaos_case).run();
}

Plan minimize_plan(const ChaosCase& failing, int* reruns) {
  Plan current = failing.plan;
  bool shrunk = true;
  while (shrunk && current.rules.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.rules.size(); ++i) {
      Plan candidate = current;
      candidate.rules.erase(candidate.rules.begin() +
                            static_cast<std::ptrdiff_t>(i));
      ChaosCase retry = failing;
      retry.plan = candidate;
      if (reruns) ++*reruns;
      if (!run_case(retry).pass) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

std::vector<std::string> known_sites() {
  return {std::begin(kFaultSites), std::end(kFaultSites)};
}

Rule planted_duplicate_replay_rule() {
  Rule rule;
  rule.site = "session.resume.replay";
  rule.hit = 1;
  rule.action = Action::kDuplicate;
  return rule;
}

}  // namespace naplet::fault
