// chaos_runner: seed-replayable chaos testing for the NapletSocket
// migration protocol.
//
//   chaos_runner --seed 42 --runs 100        random sweep (seeds 42..141)
//   chaos_runner --seed 7331                 replay one case bit-for-bit
//   chaos_runner --seed 7 --plant-dup        append the deliberate
//                                            exactly-once regression; the
//                                            ledger oracle must catch it
//   chaos_runner --seed 7 --plant-dup --minimize
//                                            then delta-debug the schedule
//                                            to a minimal failing subset
//   chaos_runner --plan "rudp.send@#2:drop" --scenario 1 --seed 9
//                                            scripted plan, explicit
//                                            scenario (plan replaces the
//                                            generated one)
//   chaos_runner --scenario 3 --seed 5       crash-restart scenario (3 =
//                                            crash-suspend, 4 = crash-
//                                            resume, 5 = crash-double)
//                                            with the recovery stack on
//   chaos_runner --scenario 4 --no-recovery  the control: same crash, all
//                                            recovery off — must fail
//                                            cleanly, not hang
//   chaos_runner --scenario 6 --seed 5       swarm scenario (6 = host
//                                            drain under a healing
//                                            partition, 7 = cascading
//                                            rebalance off a refused
//                                            batch admission)
//   chaos_runner --scenario 8 --seed 5       group-suspend scenario (8 =
//                                            kill between group prepare
//                                            and commit, recover all-or-
//                                            nothing; 9 = one peer refuses
//                                            mid-prepare, full-group
//                                            rollback under send load)
//   chaos_runner --list-sites                print every injection site
//
// Every failure line carries the seed that reproduces it. Exit code is the
// number of failing cases (capped at 125 to stay clear of shell specials).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--runs N] [--light] [--plan RULES]\n"
               "          [--scenario 0..9] [--no-recovery] [--plant-dup]\n"
               "          [--minimize] [--list-sites] [--verbose]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int runs = 1;
  bool light = false;
  bool plant_dup = false;
  bool minimize = false;
  bool verbose = false;
  bool recovery = true;
  int scenario = -1;
  std::string plan_text;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--runs") {
      runs = std::atoi(next());
    } else if (arg == "--light") {
      light = true;
    } else if (arg == "--plan") {
      plan_text = next();
    } else if (arg == "--scenario") {
      scenario = std::atoi(next());
    } else if (arg == "--no-recovery") {
      recovery = false;
    } else if (arg == "--plant-dup") {
      plant_dup = true;
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-sites") {
      for (const auto& site : naplet::fault::known_sites()) {
        std::printf("%s\n", site.c_str());
      }
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (const char* env = std::getenv("NAPLET_FAULTS_LIGHT");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    light = true;
  }

  int failures = 0;
  for (int run = 0; run < runs; ++run) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(run);
    if (scenario >= naplet::fault::kScenarioCount) {
      std::fprintf(stderr, "bad --scenario: %d\n", scenario);
      return 2;
    }
    naplet::fault::ChaosCase chaos_case =
        scenario >= 0
            ? naplet::fault::make_case(
                  case_seed, static_cast<naplet::fault::Scenario>(scenario),
                  light, recovery)
            : naplet::fault::generate_case(case_seed, light);
    if (!plan_text.empty()) {
      auto parsed = naplet::fault::Plan::parse(plan_text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --plan: %s\n",
                     parsed.status().to_string().c_str());
        return 2;
      }
      chaos_case.plan = std::move(*parsed);
      chaos_case.plan.seed = case_seed;
    }
    if (plant_dup) {
      chaos_case.plan.rules.push_back(
          naplet::fault::planted_duplicate_replay_rule());
    }

    const naplet::fault::ChaosResult result =
        naplet::fault::run_case(chaos_case);
    std::printf("%s\n", result.line(chaos_case).c_str());
    if (verbose) {
      std::printf("  net_dropped=%llu ctrl_retx=%llu\n",
                  static_cast<unsigned long long>(result.net_datagrams_dropped),
                  static_cast<unsigned long long>(result.ctrl_retransmissions));
      std::printf("  %s\n", result.stats.c_str());
    }
    if (!result.pass) {
      ++failures;
      if (!result.recorder_dump.empty()) {
        std::printf("  flight_recorder:\n%s", result.recorder_dump.c_str());
      }
      if (minimize) {
        int reruns = 0;
        const naplet::fault::Plan minimal =
            naplet::fault::minimize_plan(chaos_case, &reruns);
        std::printf("  minimal_plan=\"%s\" rules=%zu reruns=%d\n",
                    minimal.to_string().c_str(), minimal.rules.size(),
                    reruns);
      }
    }
    std::fflush(stdout);
  }

  if (runs > 1) {
    std::printf("summary: %d/%d passed\n", runs - failures, runs);
  }
  return failures > 125 ? 125 : failures;
}
