// oneshot-cold (one fresh process per op), localsim (one worker process
// running op after op), the op child, the localsim worker, and the traced
// run's layer probes.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>

#include "driver/driver.hpp"
#include "family/builtin.hpp"
#include "family/derive.hpp"
#include "io/certificate.hpp"
#include "io/json.hpp"
#include "local/sim.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"
#include "re/autobound.hpp"
#include "re/diagram.hpp"
#include "re/engine.hpp"
#include "re/types.hpp"
#include "re/zero_round.hpp"

namespace relb::perf {

namespace {

constexpr std::size_t kColdProbes = 100;

std::string readFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary);
  file << bytes;
}

bool flag(const std::vector<std::string>& args, const std::string& name) {
  return std::find(args.begin(), args.end(), name) != args.end();
}

/// One finished op child, as the parent saw it.
struct OpRun {
  std::size_t index = 0;
  double wallMs = 0;
  Exit exit;
  io::Json report;  // the child's JSON line (null when it printed none)
  std::string output, certificate;
};

OpRun runOpChild(const RunConfig& config, std::size_t index) {
  OpRun run;
  run.index = index;
  const std::string stem = config.workDir + "/op-" + std::to_string(index);
  std::vector<std::string> args = {"op", "--workload", config.workload,
                                   "--seed", std::to_string(config.seed),
                                   "--index", std::to_string(index),
                                   "--out", stem};
  if (config.trace) args.push_back("--trace");
  const Clock::time_point start = Clock::now();
  Child child = spawnSelf(args);
  std::string stdoutText;
  run.exit = finishChild(child, stdoutText, kChildTimeout);
  run.wallMs = secondsSince(start) * 1e3;
  try {
    run.report = io::Json::parse(stdoutText);  // the child's one JSON line
  } catch (const re::Error&) {
    // A child that died or failed printed none.
  }
  run.output = readFile(stem + ".txt");
  run.certificate = readFile(stem + ".cert");
  std::remove((stem + ".txt").c_str());
  std::remove((stem + ".cert").c_str());
  std::remove((stem + ".report.json").c_str());
  return run;
}

double num(const io::Json& j, std::string_view key) {
  const io::Json* v = j.isObject() ? j.find(key) : nullptr;
  if (v == nullptr) return 0;
  if (v->type() == io::Json::Type::kInt) return static_cast<double>(v->asInt());
  if (v->type() == io::Json::Type::kBool) return v->asBool() ? 1 : 0;
  return 0;
}

/// Books an op child's end: a signal, a nonzero exit, or `oracle`.
void book(Ledger& ledger, const OpRun& run, const std::string& oracle) {
  if (run.exit.signal != 0) {
    ledger.fail(Failure::kSignal, "op " + std::to_string(run.index) +
                                      " killed by signal " + std::to_string(run.exit.signal));
  } else if (run.exit.code != 0) {
    ledger.fail(Failure::kExit, "op " + std::to_string(run.index) + " exited " +
                                    std::to_string(run.exit.code));
  } else if (!oracle.empty()) {
    ledger.fail(Failure::kOracle, "op " + std::to_string(run.index) + ": " + oracle);
  } else {
    ledger.ok(run.wallMs);
  }
}

/// Set-up shared by the process-per-op workloads: start kProcessSetups
/// no-op children (loads the binary into the page cache; their median is
/// the process floor every op pays).
std::vector<double> processSetupS(const RunConfig& config) {
  std::vector<double> times;
  for (int s = 0; s < kProcessSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    Child child = spawnSelf({"op", "--workload", "noop", "--out",
                             config.workDir + "/noop"});
    std::string ignored;
    (void)finishChild(child, ignored, kChildTimeout);
    times.push_back(secondsSince(t0));
  }
  return times;
}

/// Runs one op (`config.trace` says whether traced).
using OpRunner = std::function<OpRun(const RunConfig&, std::size_t index)>;

/// Runs ops one after another until `seconds` have passed, as one segment
/// (CPU: the processes that ran them; peak memory: the largest of those).
Segment sequentialOps(const RunConfig& config, const OpRunner& runOp,
                      std::size_t& nextIndex, double seconds,
                      std::vector<OpRun>& runs) {
  Segment seg;
  const Clock::time_point start = Clock::now();
  while (secondsSince(start) < seconds) {
    runs.push_back(runOp(config, nextIndex++));
    seg.cpuMs += runs.back().exit.cpuMs;
    seg.peakMb = std::max(seg.peakMb, runs.back().exit.maxRssMb);
  }
  seg.wallS = secondsSince(start);
  return seg;
}

/// Runs a workload's ops with `runOp`: the whole time untraced, or half
/// untraced and half traced, each cut into `segments` stretches of equal
/// length (the end-to-end metrics are medians over the untraced ones).
/// `oracle` judges one completed op, off the clock; `layers` adds the
/// per-layer metrics from the traced ops.
RunOutcome sequentialWorkload(
    const RunConfig& config, int segments, const std::vector<double>& setupS,
    const OpRunner& runOp, const std::function<std::string(const OpRun&)>& oracle,
    const std::function<void(const std::vector<OpRun>&, Metrics&)>& layers) {
  RunOutcome out;
  std::size_t nextIndex = 0;
  const auto phase = [&](const RunConfig& c, double seconds, std::vector<OpRun>* keep) {
    std::vector<Segment> part;
    for (int i = 0; i < segments; ++i) {
      std::vector<OpRun> runs;
      Segment seg = sequentialOps(c, runOp, nextIndex, seconds / segments, runs);
      std::vector<std::string> verdict(runs.size());
      onLane([&] {
        for (std::size_t r = 0; r < runs.size(); ++r) {
          if (runs[r].exit.signal == 0 && runs[r].exit.code == 0) verdict[r] = oracle(runs[r]);
        }
      });
      for (std::size_t r = 0; r < runs.size(); ++r) book(seg.ledger, runs[r], verdict[r]);
      out.ledger.merge(seg.ledger);
      if (keep != nullptr) std::move(runs.begin(), runs.end(), std::back_inserter(*keep));
      part.push_back(std::move(seg));
    }
    return part;
  };
  RunConfig plainConfig = config;
  plainConfig.trace = false;
  const std::vector<Segment> plain =
      phase(plainConfig, config.trace ? config.seconds / 2 : config.seconds, nullptr);
  if (!config.trace) {
    endToEndMetrics(plain, setupS, out.metrics);
    return out;
  }
  std::vector<OpRun> tracedRuns;
  const std::vector<Segment> traced = phase(config, config.seconds / 2, &tracedRuns);
  layers(tracedRuns, out.metrics);
  std::vector<double> busy;
  for (const OpRun& r : tracedRuns) {
    if (r.wallMs > 0) busy.push_back(r.exit.cpuMs / r.wallMs);
  }
  out.metrics["util.cores_busy"] = {mean(busy), "cores", static_cast<std::int64_t>(busy.size())};
  out.metrics["obs.trace_overhead_frac"] = traceOverhead(plain, traced);
  return out;
}

// -- op child ----------------------------------------------------------------

int oneshotOpChild(std::size_t index, const std::string& stem, bool trace) {
  const std::vector<OneshotOp> ops = oneshotOps();
  const OneshotOp& op = ops[index % ops.size()];
  std::vector<const char*> argv;
  for (const std::string& a : op.argv) argv.push_back(a.c_str());
  driver::ParseOutcome parsed =
      driver::parseArgs(static_cast<int>(argv.size()), argv.data());
  if (!parsed.error.empty() || parsed.helpRequested) {
    std::cerr << "relb_perf op: bad op argv: " << parsed.error << "\n";
    return 2;
  }
  driver::RunRequest& request = parsed.request;
  request.captureCert = true;
  // Traced: the driver's own span aggregation feeds a run report.
  if (trace) request.reportPath = stem + ".report.json";
  const Clock::time_point t0 = Clock::now();
  const driver::RunResult result = driver::run(request);
  const double runMs = secondsSince(t0) * 1e3;
  writeFile(stem + ".txt", result.output);
  writeFile(stem + ".cert", result.certificateBytes);
  const re::CacheStats& s = result.sessionStats;
  const std::size_t hits = s.stepHits + s.edgeCompatHits + s.strengthHits +
                           s.rightClosedHits + s.zeroRoundHits + s.canonicalHits;
  const std::size_t misses = s.stepMisses + s.edgeCompatMisses + s.strengthMisses +
                             s.rightClosedMisses + s.zeroRoundMisses + s.canonicalMisses;
  io::Json j = io::Json::object();
  j.set("exit", result.exitCode());
  j.set("run_us", static_cast<std::int64_t>(runMs * 1e3));
  j.set("hits", static_cast<std::int64_t>(hits));
  j.set("misses", static_cast<std::int64_t>(misses));
  std::cout << j.dump() << std::endl;
  if (result.exitCode() != 0) std::cerr << result.diagnostics;
  return result.exitCode();
}

/// Runs one localsim op; the reply line's fields, or {"error": why}.
io::Json localOpReply(std::uint64_t seed, std::size_t index, bool trace) {
  const LocalOp op = localOp(seed, index);
  local::SimOptions options;
  options.family = op.boundedDegree ? local::Family::kBoundedDegreeTree
                                    : local::Family::kRandomTree;
  options.nodes = op.nodes;
  options.algo = local::Algo::kDomsetReduction;
  options.seed = op.seed;
  options.numThreads = kLocalWidth;
  options.verify = true;
  // Traced: an aggregator sink collects runSim's own local.build /
  // local.algo / local.verify spans (makeTree, lubyMis + domsetFromMis, the
  // CSR verifier).
  std::shared_ptr<obs::SpanAggregator> spans;
  if (trace) {
    spans = std::make_shared<obs::SpanAggregator>();
    obs::Tracer::global().addSink(spans);
  }
  io::Json j = io::Json::object();
  try {
    const local::SimResult result = local::runSim(options);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(result.stateChecksum));
    j.set("rounds", result.rounds);
    j.set("checksum", std::string(hex));
    j.set("verified", result.verified);
    j.set("graph_bytes", static_cast<std::int64_t>(result.graphBytes));
  } catch (const re::Error& e) {
    j = io::Json::object();
    j.set("error", std::string(e.what()));
  }
  if (spans != nullptr) {
    obs::Tracer::global().flush();
    for (const auto& [name, totals] : spans->rootTotals()) {
      j.set(name + "_us", totals.wallMicros);
    }
    obs::Tracer::global().clearSinks();
  }
  return j;
}

/// localsim's worker process (`relb_perf worker`): it prints "ready", then
/// runs the op of each index read from stdin and answers with one JSON
/// line, until stdin closes.
class LocalWorker {
 public:
  /// `extraArgs` go to the worker's command line (the self-test's
  /// --crash-at).
  explicit LocalWorker(std::vector<std::string> extraArgs = {})
      : extraArgs_(std::move(extraArgs)) {}
  ~LocalWorker() {
    if (running()) (void)stop();
  }
  LocalWorker(const LocalWorker&) = delete;
  LocalWorker& operator=(const LocalWorker&) = delete;

  void start(const RunConfig& config) {
    std::vector<std::string> args = {"worker", "--seed", std::to_string(config.seed)};
    if (config.trace) args.emplace_back("--trace");
    args.insert(args.end(), extraArgs_.begin(), extraArgs_.end());
    child_ = spawnSelf(args);
    traced_ = config.trace;
    std::string line;
    if (!readLine(child_.stdoutFd, line) || line != "ready") {
      (void)stop();
      throw re::Error("localsim worker did not start: '" + line + "'");
    }
  }

  /// Runs op `index`, first (re)starting the worker if it is not running
  /// or runs with the other trace setting.  A worker that dies takes its
  /// op with it: the op's exit is the worker's.
  OpRun run(const RunConfig& config, std::size_t index) {
    if (!running() || traced_ != config.trace) {
      if (running()) (void)stop();
      start(config);
    }
    OpRun run;
    run.index = index;
    const double cpu0 = procCpuMs(child_.pid);
    const std::string request = std::to_string(index) + "\n";
    const Clock::time_point t0 = Clock::now();
    std::string reply;
    pollfd ready{child_.stdoutFd, POLLIN, 0};
    const bool answered =
        ::write(child_.stdinFd, request.data(), request.size()) ==
            static_cast<ssize_t>(request.size()) &&
        ::poll(&ready, 1, static_cast<int>(kChildTimeout * 1000)) == 1 &&
        readLine(child_.stdoutFd, reply);
    // A worker that did not answer in time is killed; its op fails.
    if (!answered) ::kill(child_.pid, SIGKILL);
    run.wallMs = secondsSince(t0) * 1e3;
    if (!answered) {
      run.exit = stop();
      if (run.exit.signal == 0 && run.exit.code == 0) run.exit.code = -1;
      return run;
    }
    run.exit.code = 0;
    run.exit.cpuMs = procCpuMs(child_.pid) - cpu0;
    run.exit.maxRssMb = procPeakRssMb(child_.pid);
    try {
      run.report = io::Json::parse(reply);
    } catch (const re::Error&) {
      run.exit.code = -1;
    }
    if (const io::Json* error = run.report.isObject() ? run.report.find("error") : nullptr) {
      std::cerr << "relb_perf worker: op " << index << ": " << error->asString() << "\n";
      run.exit.code = 1;
    }
    return run;
  }

  /// Closes the worker's stdin and reaps it.
  Exit stop() {
    std::string rest;
    return finishChild(child_, rest, kChildTimeout);
  }

  [[nodiscard]] bool running() const { return child_.pid >= 0; }

 private:
  std::vector<std::string> extraArgs_;
  Child child_;
  bool traced_ = false;
};

// -- layer probes ------------------------------------------------------------

/// The engine problems a workload's ops carry.
std::vector<ProblemInput> probeInputs(const std::string& workload, std::uint64_t seed) {
  if (workload == "serve-warm") return warmCatalog();
  if (workload == "serve-coldstart") return hardCatalog();
  if (workload == "serve-cold") return coldStream(seed * 7919, kColdProbes);
  std::vector<ProblemInput> inputs;
  for (const OneshotOp& op : oneshotOps()) {
    if (op.argv.size() == 5 && op.argv[1] != "--family") {
      inputs.push_back({op.name, op.argv[1], op.argv[2], 3, -1});
    }
  }
  for (const family::FamilyDef& def : family::builtinFamilies()) {
    const re::Problem p = family::instantiateWithDefaults(def);
    inputs.push_back({"family:" + def.name, nodeSpecOf(p), edgeSpecOf(p), 6, -1});
  }
  return inputs;
}

void emit(const std::string& name, double value) {
  std::cout << name << " " << value << std::endl;
}

/// Times the driver's problem path, decomposed into its public calls, on
/// one session; `timed` = report the times (false: a warm-up pass).
void probeProblem(const re::Problem& p, int maxSteps, re::EngineSession& session,
                  int width, bool timed) {
  const auto time = [&](const char* name, double scale, const std::function<void()>& fn) {
    const Clock::time_point t = Clock::now();
    fn();
    if (timed) emit(name, secondsSince(t) * scale);
  };
  time("re.analyze_ms", 1e3, [&] {
    (void)re::computeStrength(p.edge, p.alphabet.size());
    (void)re::zeroRoundSolvableSymmetricPorts(p);
    (void)re::zeroRoundSolvableAdversarialPorts(p);
    (void)re::zeroRoundSolvableWithEdgeInputs(p);
  });
  time("re.iterate_ms", 1e3, [&] {
    re::IterateOptions options;
    options.maxSteps = maxSteps;
    options.maxLabels = 16;
    options.stepOptions.numThreads = width;
    options.context = &session;
    (void)re::iterateSpeedup(p, options);
  });
  io::Certificate cert;
  time("family.trace_cert_ms", 1e3,
       [&] { cert = family::buildTraceCertificate(p, session, maxSteps, 16); });
  time("io.cert_encode_us", 1e6, [&] { (void)io::certificateToJson(cert).dumpPretty(); });
  time("re.autobound_ms", 1e3, [&] {
    re::AutoLowerBoundOptions options;
    options.maxSteps = maxSteps;
    options.maxLabels = 10;
    options.stepOptions.numThreads = width;
    options.context = &session;
    try {
      (void)re::autoLowerBound(p, options);
    } catch (const re::Error&) {
      // An engine guard ends the search, as in the driver.
    }
  });
}

/// Probes one of the workload's problems.  serve-warm times the request
/// path a second time over the core the first pass warmed (as the served
/// catalog is warm); the cold workloads time it once on a fresh core.
void probeOne(const std::string& workload, const ProblemInput& in, int width) {
  std::string node = in.nodeSpec, edge = in.edgeSpec;
  std::replace(node.begin(), node.end(), ';', '\n');
  std::replace(edge.begin(), edge.end(), ';', '\n');
  const re::Problem p = re::Problem::parse(node, edge);
  re::PassOptions options;
  options.numThreads = width;
  {
    // Single step and zero-round verdict: cold on a fresh core, then hit.
    re::EngineSession session(std::make_shared<re::EngineCore>(), options);
    Clock::time_point t = Clock::now();
    try {
      (void)session.speedupStep(p);
      emit("re.step_cold_ms", secondsSince(t) * 1e3);
      t = Clock::now();
      (void)session.speedupStep(p);
      emit("re.step_hit_us", secondsSince(t) * 1e6);
    } catch (const re::Error&) {
      // An engine guard refused the step; no sample.
    }
    (void)session.zeroRoundSolvable(p, re::ZeroRoundMode::kWithEdgeInputs);
    t = Clock::now();
    (void)session.zeroRoundSolvable(p, re::ZeroRoundMode::kWithEdgeInputs);
    emit("re.zero_round_hit_us", secondsSince(t) * 1e6);
  }
  const bool warm = workload == "serve-warm";
  auto core = std::make_shared<re::EngineCore>();
  for (int pass = warm ? 0 : 1; pass < 2; ++pass) {
    re::EngineSession session(core, options);
    probeProblem(p, in.maxSteps, session, width, pass == 1);
  }
}

}  // namespace

RunOutcome runOneshotCold(const RunConfig& config) {
  const std::vector<OneshotOp> ops = oneshotOps();
  const auto oracle = [&](const OpRun& run) -> std::string {
    std::string why = checkCertificate(run.certificate);
    if (why.empty()) why = checkBound(run.output, ops[run.index % ops.size()].publishedBound);
    return why;
  };
  const auto layers = [](const std::vector<OpRun>& runs, Metrics& m) {
    std::vector<double> runMs;
    double hits = 0, misses = 0;
    for (const OpRun& r : runs) {
      if (r.report.isNull()) continue;
      runMs.push_back(num(r.report, "run_us") / 1e3);
      hits += num(r.report, "hits");
      misses += num(r.report, "misses");
    }
    const auto n = static_cast<std::int64_t>(runMs.size());
    const double ops = std::max<double>(1, static_cast<double>(n));
    m["driver.run_ms_p50"] = {quantile(runMs, 0.5), "ms", n};
    m["driver.run_ms_p99"] = {quantile(runMs, 0.99), "ms", n};
    m["re.hits_per_op"] = {hits / ops, "count", n};
    m["re.misses_per_op"] = {misses / ops, "count", n};
    m["re.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0, "ratio", n};
  };
  return sequentialWorkload(config, 1, processSetupS(config), runOpChild, oracle, layers);
}

RunOutcome runLocalsim(const RunConfig& config) {
  // Rounds and checksum must repeat for every instance seen twice.
  std::map<std::uint64_t, std::pair<double, std::string>> first;
  const auto oracle = [&](const OpRun& run) -> std::string {
    if (num(run.report, "verified") != 1) return "verifier did not accept";
    const std::uint64_t key = run.index % kLocalDistinct;
    const io::Json* sum = run.report.find("checksum");
    const std::pair<double, std::string> seen{num(run.report, "rounds"),
                                              sum != nullptr ? sum->asString() : ""};
    const auto [it, inserted] = first.emplace(key, seen);
    if (!inserted && it->second != seen) return "rounds / checksum differ from an earlier run";
    return "";
  };
  const auto layers = [](const std::vector<OpRun>& runs, Metrics& m) {
    std::vector<double> build, algo, verify, rounds, graph;
    for (const OpRun& r : runs) {
      if (r.report.isNull()) continue;
      build.push_back(num(r.report, "local.build_us") / 1e3);
      algo.push_back(num(r.report, "local.algo_us") / 1e3);
      verify.push_back(num(r.report, "local.verify_us") / 1e3);
      rounds.push_back(num(r.report, "rounds"));
      graph.push_back(num(r.report, "graph_bytes") / (1024.0 * 1024.0));
    }
    const auto n = static_cast<std::int64_t>(build.size());
    m["local.build_ms"] = {quantile(build, 0.5), "ms", n};
    m["local.algo_ms"] = {quantile(algo, 0.5), "ms", n};
    m["local.verify_ms"] = {quantile(verify, 0.5), "ms", n};
    m["local.rounds"] = {mean(rounds), "count", n};
    m["local.graph_mib"] = {mean(graph), "MiB", n};
  };
  // Set-up: starting the worker (the last start serves the timed phase).
  LocalWorker worker;
  std::vector<double> setupS;
  RunConfig plainConfig = config;
  plainConfig.trace = false;
  for (int s = 0; s < kProcessSetups; ++s) {
    if (worker.running()) (void)worker.stop();
    const Clock::time_point t0 = Clock::now();
    worker.start(plainConfig);
    setupS.push_back(secondsSince(t0));
  }
  RunOutcome out = sequentialWorkload(
      config, kLocalSegments, setupS,
      [&](const RunConfig& c, std::size_t index) { return worker.run(c, index); }, oracle,
      layers);
  if (worker.running()) {
    const Exit exit = worker.stop();
    if (exit.signal != 0) {
      out.ledger.fail(Failure::kSignal,
                      "localsim worker killed by signal " + std::to_string(exit.signal));
    } else if (exit.code != 0) {
      out.ledger.fail(Failure::kExit, "localsim worker exited " + std::to_string(exit.code));
    }
  }
  return out;
}

Ledger selftestChild(const std::string& workDir) {
  RunConfig config;
  config.workDir = workDir;
  Ledger ledger;
  config.workload = "noop";
  book(ledger, runOpChild(config, 0), "");
  config.workload = "segv";
  book(ledger, runOpChild(config, 1), "");
  // A localsim worker that dies in its second op.
  config.workload = "localsim";
  LocalWorker worker({"--crash-at", "3"});
  book(ledger, worker.run(config, 2), "");
  book(ledger, worker.run(config, 3), "");
  return ledger;
}

int opMain(const std::vector<std::string>& args) {
  const std::string workload = argValue(args, "--workload");
  const std::size_t index = std::stoull(argValue(args, "--index", "0"));
  const std::string stem = argValue(args, "--out");
  const bool trace = flag(args, "--trace");
  if (workload == "noop") return 0;
  if (workload == "segv") return std::raise(SIGSEGV);
  if (workload == "oneshot-cold") return oneshotOpChild(index, stem, trace);
  std::cerr << "relb_perf op: unknown workload '" << workload << "'\n";
  return 2;
}

int workerMain(const std::vector<std::string>& args) {
  const std::uint64_t seed = std::stoull(argValue(args, "--seed", "1"));
  const bool trace = flag(args, "--trace");
  // Self-test only: die by SIGSEGV when asked for this op.
  const std::string crashAt = argValue(args, "--crash-at");
  std::cout << "ready" << std::endl;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == crashAt) std::raise(SIGSEGV);
    std::cout << localOpReply(seed, std::stoull(line), trace).dump() << std::endl;
  }
  return 0;
}

int probeMain(const std::vector<std::string>& args) {
  const std::string workload = argValue(args, "--workload");
  const std::uint64_t seed = std::stoull(argValue(args, "--seed", "1"));
  const std::size_t index = std::stoull(argValue(args, "--index", "0"));
  const std::vector<ProblemInput> inputs = probeInputs(workload, seed);
  if (index >= inputs.size()) return 2;
  if (workload == "oneshot-cold") {
    // One-shot context: the main thread at width 0.
    probeOne(workload, inputs[index], 0);
  } else {
    // Served context: a pool lane, width 1 (what a server lane runs).
    onLane([&] { probeOne(workload, inputs[index], 1); });
  }
  return 0;
}

void probeLayers(const RunConfig& config, Metrics& metrics, std::int64_t& crashes) {
  // One child per problem, so a crash costs only that problem's samples.
  std::map<std::string, std::vector<double>> samples;
  const std::size_t count = probeInputs(config.workload, config.seed).size();
  for (std::size_t i = 0; i < count; ++i) {
    Child child = spawnSelf({"probe", "--workload", config.workload, "--seed",
                             std::to_string(config.seed), "--index", std::to_string(i)});
    std::string text;
    const Exit exit = finishChild(child, text, kChildTimeout);
    if (exit.signal != 0) ++crashes;
    std::istringstream lines(text);
    std::string name;
    double value = 0;
    while (lines >> name >> value) samples[name].push_back(value);
  }
  for (const auto& [metric, unit] : perLayerMetricNames()) {
    const auto it = samples.find(metric);
    if (it == samples.end()) continue;
    metrics[metric] = {mean(it->second), unit, static_cast<std::int64_t>(it->second.size())};
  }
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"serve.ping_us", "us"},         {"serve.overhead_us", "us"},
      {"serve.queue_ms_p99", "ms"},    {"serve.refused", "count"},
      {"driver.run_ms_p50", "ms"},     {"driver.run_ms_p99", "ms"},
      {"re.hits_per_op", "count"},     {"re.misses_per_op", "count"},
      {"re.hit_ratio", "ratio"},       {"re.autobound_ms", "ms"},
      {"re.iterate_ms", "ms"},         {"re.analyze_ms", "ms"},
      {"re.step_cold_ms", "ms"},       {"re.step_hit_us", "us"},
      {"re.zero_round_hit_us", "us"},  {"family.trace_cert_ms", "ms"},
      {"io.cert_encode_us", "us"},     {"util.cores_busy", "cores"},
      {"util.crashes", "count"},       {"local.build_ms", "ms"},
      {"local.algo_ms", "ms"},         {"local.verify_ms", "ms"},
      {"local.rounds", "count"},       {"local.graph_mib", "MiB"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return names;
}

}  // namespace relb::perf
