#include "fault/chaos.hpp"

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <thread>

#include "core/runtime.hpp"
#include "fault/oracle.hpp"
#include "fault/sites.hpp"
#include "net/sim.hpp"
#include "obs/recorder.hpp"
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
  NAPLET_RETURN_IF_ERROR(realm.hop(id, node_name(from), node_name(to)));
  return realm.node(node_name(to)).controller().complete_migration(id);
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
      // corruption degrades to loss, which retransmission must absorb.
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
  ChaosCase chaos_case;
  chaos_case.seed = seed;
  chaos_case.scenario = scenario;
  chaos_case.recovery = recovery;
  chaos_case.forward_msgs = light ? 6 : 12;
  chaos_case.reverse_msgs = light ? 4 : 8;
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
    default:  // kCrashResume, kCrashDouble
      // Every handoff worker of the doomed incarnation dies: the mover's
      // RESUME is in flight, unanswered, when the controller is killed.
      rule.site = "redirector.handoff.accept";
      rule.count = 1000;
      rule.action = Action::kKill;
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
/// killed server host.
constexpr int kJournalNode = 1;

/// Node i's config: the shared rudp base, then the crash family's
/// overrides. Crash cases without recovery get the paper's single-shot
/// protocol with tight timeouts, so the expected failure is bounded, never
/// a hang. Only the journal node (kJournalNode) is durable.
nsock::NodeConfig node_config(const ChaosCase& chaos_case, int i,
                              const std::string& journal_dir) {
  nsock::NodeConfig config;
  config.controller.security = false;
  config.server.rudp_config.retransmit_interval = 15ms;
  config.server.rudp_config.max_attempts = 40;
  // Decorrelated but reproducible retransmit jitter per node.
  config.server.rudp_config.jitter_seed = chaos_case.seed * 3 + i + 1;

  if (!is_crash_scenario(chaos_case.scenario)) return config;

  nsock::ControllerConfig& ctrl = config.controller;
  ctrl.ctrl_response_timeout = 1s;
  ctrl.drain_timeout = 1s;
  if (!chaos_case.recovery) {
    ctrl.resume_timeout = 3s;
    return config;
  }
  // Crash recovery resumes through a restarted redirector.
  ctrl.tolerance.enabled = true;
  ctrl.tolerance.probe_interval = 500ms;
  ctrl.tolerance.probe_timeout = 200ms;
  // The planned kill must not race the death detector: recovery here is
  // retries and journal replay, not probe-driven abort.
  ctrl.tolerance.miss_threshold = 1000;
  ctrl.resume_timeout = 8s;
  if (i == kJournalNode) {
    ctrl.durability.enabled = true;
    ctrl.durability.dir = journal_dir;
    ctrl.durability.compact_floor_bytes = 64;
  }
  return config;
}

/// One case, end to end, over a three-node sim realm: chaos-cli on chaos0
/// holds one connection to chaos-srv on chaos1. setup() builds that world, traffic()
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
    // The small byte floor (node_config) must have compacted the doomed
    // incarnation's journal past the compaction open() always does, so
    // the restart replays a snapshot plus a journal tail. A peer's drain
    // commit trails its SUS_ACK, so give it a moment to land.
    if (const auto* store = ctrl(i).durable_store(); store != nullptr) {
      for (int tick = 0; tick < 200 && store->compactions() < 2; ++tick) {
        std::this_thread::sleep_for(10ms);
      }
      if (store->compactions() < 2) {
        return util::FailedPrecondition("journal never compacted before "
                                        "the crash");
      }
    }
    realm.remove_node(node_name(i));
    injector.disarm();
    auto& node = realm.add_node(node_name(i), net.add_node(node_name(i)),
                                node_config(chaos_case, i, journal.path()));
    NAPLET_RETURN_IF_ERROR(node.start());
    if (chaos_case.recovery) {
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
  auto client = ctrl(0).connect(cli, srv);
  if (!client.ok()) return fail("connect: " + client.status().to_string());
  auto server = ctrl(1).accept(srv, 5s);
  if (!server.ok()) return fail("accept: " + server.status().to_string());
  clients.push_back(*client);
  servers.push_back(*server);
  conns.push_back((*client)->conn_id());
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
  if (is_crash_scenario(chaos_case.scenario)) return crash();
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
    if (auto st = crash_restart(1, srv); !st.ok()) {
      return fail("restart: " + st.to_string());
    }
    staged = migrate_agent(realm, cli, 0, 2);
  } else {
    // Stage the client's migration cleanly up to the resume, then let the
    // mover's RESUME hit a redirector whose handoff workers die — and
    // kill the controller while the RESUME hangs unanswered.
    if (auto st = realm.hop(cli, node_name(0), node_name(2)); !st.ok()) {
      return fail("hop: " + st.to_string());
    }
    nsock::SocketController& dst = ctrl(2);
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
    for (const auto* stats : {&cli_stats, &srv_stats}) {
      if (const auto* c = stats->metrics.counter("rudp_retransmissions")) {
        result.ctrl_retransmissions += c->value;
      }
    }
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
