// relb_perf entry point: argument parsing, the result report, the
// self-test.  perf.hpp lists the subcommands.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "perf.hpp"
#include "re/types.hpp"

namespace {

using namespace relb::perf;
namespace io = relb::io;

/// The end-to-end metric names, in report order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"throughput_ops_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MiB"},    {"cpu_ms_per_op", "ms"},
};

std::string cpuModel() {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage() {
  std::cerr << "usage: relb_perf run --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n"
               "       relb_perf selftest --workdir DIR\n"
               "workloads: serve-warm serve-coldstart serve-cold oneshot-cold localsim\n";
  return 2;
}

int runMain(const std::vector<std::string>& args) {
  // A child that dies while we write to its stdin must fail its op, not
  // take this process down.
  std::signal(SIGPIPE, SIG_IGN);
  if (std::strcmp(RELB_PERF_BUILD_TYPE, "Release") != 0) {
    std::cerr << "relb_perf: library build type is '" << RELB_PERF_BUILD_TYPE
              << "', not Release; refusing to measure\n";
    return 2;
  }
  RunConfig config;
  config.workload = argValue(args, "--workload");
  config.seed = std::stoull(argValue(args, "--seed", "1"));
  config.seconds = std::stod(argValue(args, "--seconds", "10"));
  config.trace = argValue(args, "--trace", "0") == "1";
  config.workDir = argValue(args, "--workdir");
  if (config.workDir.empty() || config.seconds <= 0) return usage();
  std::filesystem::create_directories(config.workDir);

  RunOutcome outcome;
  if (config.workload == "serve-warm") {
    outcome = runServeWarm(config);
  } else if (config.workload == "serve-cold") {
    outcome = runServeCold(config);
  } else if (config.workload == "serve-coldstart") {
    outcome = runServeColdStart(config);
  } else if (config.workload == "oneshot-cold") {
    outcome = runOneshotCold(config);
  } else if (config.workload == "localsim") {
    outcome = runLocalsim(config);
  } else {
    std::cerr << "relb_perf: unknown workload '" << config.workload << "'\n";
    return usage();
  }
  const Ledger& ledger = outcome.ledger;
  Metrics& m = outcome.metrics;
  // From the final ledger: set-up ops and server exits count too.
  const std::int64_t ok = ledger.attempted() - ledger.failed();
  m["ok_frac"] = {ledger.attempted() > 0 ? static_cast<double>(ok) /
                                               static_cast<double>(ledger.attempted())
                                         : 0,
                  "ratio", ledger.attempted()};

  std::vector<std::pair<std::string, std::string>> names = kEndToEnd;
  if (config.trace) {
    std::int64_t probeCrashes = 0;
    if (config.workload != "localsim") probeLayers(config, m, probeCrashes);
    m["util.crashes"] = {static_cast<double>(ledger.signals() + probeCrashes),
                         "count", ledger.attempted()};
    names = perLayerMetricNames();
  }

  // Human-readable report, then the stamp, then the result line.
  std::cout << "workload " << config.workload << " (seed " << config.seed
            << ", " << config.seconds << " s, trace " << config.trace
            << "): " << ledger.attempted() << " attempted, " << ledger.failed()
            << " failed (" << ledger.signals() << " by signal, "
            << ledger.oracleFailures() << " by an oracle)\n";
  for (const auto& [name, unit] : names) {
    const auto it = m.find(name);
    const Metric metric = it == m.end() ? Metric{0, unit, 0} : it->second;
    std::printf("  %-24s %14.6g %-6s (n=%lld)%s\n", name.c_str(), metric.value,
                unit.c_str(), static_cast<long long>(metric.samples),
                metric.samples == 0 ? "  not reached by this workload" : "");
  }
  for (const std::string& note : ledger.notes()) {
    std::cerr << "relb_perf: failed op: " << note << "\n";
  }

  // The report line run.py turns into the stamp and the result JSON.
  // io::Json holds no floating-point numbers, so each value travels as
  // its %.17g text and run.py reads it back as a number.
  io::Json values = io::Json::object();
  io::Json units = io::Json::object();
  io::Json samples = io::Json::object();
  for (const auto& [name, unit] : names) {
    const auto it = m.find(name);
    const Metric metric = it == m.end() ? Metric{0, unit, 0} : it->second;
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", metric.value);
    values.set(name, std::string(text));
    units.set(name, unit);
    samples.set(name, metric.samples);
  }
  io::Json report = io::Json::object();
  report.set("workload", config.workload);
  report.set("seed", static_cast<std::int64_t>(config.seed));
  report.set("trace", config.trace ? 1 : 0);
  report.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  report.set("cpu_model", cpuModel());
  report.set("library_build_type", std::string(RELB_PERF_BUILD_TYPE));
  report.set("correct", ledger.oracleFailures() == 0 && !ledger.latenciesMs().empty());
  report.set("attempted", ledger.attempted());
  report.set("failed", ledger.failed());
  report.set("values", std::move(values));
  report.set("units", std::move(units));
  report.set("samples", std::move(samples));
  std::cout << "report " << report.dump() << std::endl;
  return 0;
}

int selftestMain(const std::vector<std::string>& args) {
  const std::string workDir = argValue(args, "--workdir");
  if (workDir.empty()) return usage();
  std::filesystem::create_directories(workDir);
  struct Case {
    const char* name;
    Ledger ledger;
    std::int64_t attempted, failed, oracle, signals;
  };
  const std::vector<Case> cases = {
      // good cold, good warm, tampered and forged certificates, mutated warm
      {"serve", selftestServe(workDir), 5, 3, 3, 0},
      // clean child + child killed by SIGSEGV; worker op + worker killed
      {"child", selftestChild(workDir), 4, 2, 0, 2},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const Ledger& l = c.ledger;
    const bool pass = l.attempted() == c.attempted && l.failed() == c.failed &&
                      l.oracleFailures() == c.oracle && l.signals() == c.signals;
    std::cout << (pass ? "PASS " : "FAIL ") << c.name << ": attempted "
              << l.attempted() << ", failed " << l.failed() << ", oracle "
              << l.oracleFailures() << ", signals " << l.signals() << "\n";
    for (const std::string& note : l.notes()) std::cout << "  failure: " << note << "\n";
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "run") return runMain(args);
    if (command == "serve") return serveMain(args);
    if (command == "op") return opMain(args);
    if (command == "probe") return probeMain(args);
    if (command == "worker") return workerMain(args);
    if (command == "selftest") return selftestMain(args);
  } catch (const std::exception& e) {
    std::cerr << "relb_perf " << command << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
