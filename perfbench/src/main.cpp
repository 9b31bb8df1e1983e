// perfbench: the repository benchmark program.
//
//   perfbench --workload churn|lifecycle|stream --seed N --seconds S
//             --trace 0|1 --run-dir DIR
//
// Prints a human-readable report (every end-to-end metric that applies to
// the workload, with unit and sample count), then, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// carry the end-to-end metrics; traced runs the per-layer ones. Exit code
// 0 only when every delivery/state check held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "churn|lifecycle|stream --seed N --seconds S --trace 0|1 "
               "--run-dir DIR\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.run_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--run-dir") {
      o.run_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_report(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : set.items()) {
    if (m.samples > 0) {
      std::printf("  %-44s %16s %-6s n=%zu\n", name.c_str(),
                  number(m.value).c_str(), m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-44s %16s %s\n", name.c_str(), number(m.value).c_str(),
                  m.unit.c_str());
    }
  }
}

/// The end-to-end metrics of the result object (BENCHMARK.json); the
/// wall-clock figures stay in the report and in the traced run.
MetricSet contract(const MetricSet& e2e) {
  MetricSet out;
  for (const char* name : {"cpu_us_per_op", "setup_s"}) {
    if (const Metric* m = e2e.find(name)) {
      out.set(name, m->value, m->unit, m->samples);
    }
  }
  return out;
}

std::string metrics_json(const MetricSet& set) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : set.items()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Outcome out;
  try {
    std::filesystem::create_directories(options.run_dir);
    if (options.workload == "churn") {
      out = run_churn(options);
    } else if (options.workload == "lifecycle") {
      out = run_lifecycle(options);
    } else if (options.workload == "stream") {
      out = run_stream(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %.3g s, trace %d, %u cores\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, nproc());
  print_report("end-to-end metrics (this workload):", out.detail);
  if (options.trace) print_report("per-layer metrics:", out.layers);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CORRECTNESS: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(options.trace ? out.layers : contract(out.e2e))
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
