// serve-warm, serve-coldstart and serve-cold: closed-loop clients over a
// unix socket to relb_perf serve children (serve::Server, default lanes).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <iostream>
#include <map>
#include <numeric>
#include <random>
#include <thread>

#include "driver/driver.hpp"
#include "io/certificate.hpp"
#include "io/json.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"
#include "re/types.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace relb::perf {

namespace {

/// Connections of serve-cold and of serve-warm's catalog warm-up.
constexpr int kClients = 4;
/// Connections of serve-warm's timed phase: one request at a time.  Two
/// concurrent warm requests slow each other on the shared core by an
/// amount that changed from run to run (README.md).
constexpr int kWarmClients = 1;
/// serve-cold keeps this many requests in flight per connection, so the
/// lanes always have queued work: its tiny requests measure the server's
/// capacity rather than client turnaround.
constexpr std::size_t kColdDepth = 4;
/// serve-cold: distinct problems per server lifetime.  Fixing it makes the
/// server's peak memory a function of the request count, not of speed.
constexpr std::size_t kColdSegment = 4000;
constexpr int kPings = 200;

/// A running `relb_perf serve` child; `traced` attaches a span aggregator
/// to its tracer, so every request's spans are recorded.
class ServerProc {
 public:
  explicit ServerProc(std::string socketPath, bool traced = false)
      : socket_(std::move(socketPath)) {
    std::vector<std::string> args = {"serve", "--unix", socket_};
    if (traced) args.emplace_back("--trace");
    child_ = spawnSelf(args);
    std::string line;
    if (!readLine(child_.stdoutFd, line) || line != "listening") {
      std::string rest;
      (void)finishChild(child_, rest, kChildTimeout);
      throw re::Error("server child did not start: '" + line + "'");
    }
  }
  ~ServerProc() {
    if (child_.pid >= 0) (void)stop();
  }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  [[nodiscard]] pid_t pid() const { return child_.pid; }
  /// `count` connections.
  [[nodiscard]] std::vector<serve::Client> connectAll(int count) const {
    std::vector<serve::Client> clients;
    for (int c = 0; c < count; ++c) {
      clients.push_back(serve::Client::connectUnix(socket_));
    }
    return clients;
  }
  /// Drains and reaps the server; its exit tells whether it crashed.
  Exit stop() {
    std::string rest;
    return finishChild(child_, rest, kChildTimeout);
  }

 private:
  std::string socket_;
  Child child_;
};

/// One timed request as the client saw it.
struct Record {
  std::size_t input = 0;
  double rttMs = 0;
  int code = 0;
  bool transportError = false;
  std::string error;
  std::int64_t queueUs = 0, runUs = 0, hits = 0, misses = 0;
  ServedBytes bytes;
};

serve::Request requestFor(const ProblemInput& in, std::int64_t id) {
  serve::Request request;
  request.id = id;
  request.kind = serve::Request::Kind::kProblem;
  request.nodeSpec = in.nodeSpec;
  request.edgeSpec = in.edgeSpec;
  request.maxSteps = in.maxSteps;
  request.wantCertificate = true;
  request.wantStats = true;
  return request;
}

Record recordOf(serve::Response response, std::size_t index,
                Clock::time_point sent) {
  Record r;
  r.input = index;
  r.rttMs = secondsSince(sent) * 1e3;
  r.code = static_cast<int>(response.code);
  if (response.stats) {
    r.queueUs = response.stats->queueMicros;
    r.runUs = response.stats->runMicros;
    r.hits = response.stats->totalHits();
    r.misses = response.stats->totalMisses();
  }
  r.bytes = {std::move(response.output), std::move(response.certificate)};
  if (!response.ok()) r.error = response.diagnostics;
  return r;
}

Record lostRecord(std::size_t index, Clock::time_point sent, const char* what) {
  Record r;
  r.input = index;
  r.rttMs = secondsSince(sent) * 1e3;
  r.transportError = true;
  r.error = what;
  return r;
}

Record roundTrip(serve::Client& client, const ProblemInput& in,
                 std::size_t index, std::int64_t id) {
  const Clock::time_point sent = Clock::now();
  try {
    return recordOf(client.roundTrip(requestFor(in, id)), index, sent);
  } catch (const re::Error& e) {
    return lostRecord(index, sent, e.what());
  }
}

/// Runs `fn(i)` for i in [0, n) across lanes of a fresh pool (the oracle
/// work: nested library parallelism runs inline, as in a server lane).
void onLanes(std::size_t n, const std::function<void(std::size_t)>& fn) {
  util::ThreadPool pool(kClients);
  pool.forEachIndex(n, fn);
}

/// Books a record into the ledger: refused, transport and non-200 answers
/// are failures; otherwise `oracle` (may be "") decides.
void book(Ledger& ledger, const Record& r, const std::string& oracle) {
  if (r.transportError) {
    ledger.fail(Failure::kTransport, "transport: " + r.error);
  } else if (r.code != 200) {
    ledger.fail(Failure::kRefused, "code " + std::to_string(r.code) + ": " + r.error);
  } else if (!oracle.empty()) {
    ledger.fail(Failure::kOracle, oracle);
  } else {
    ledger.ok(r.rttMs);
  }
}

/// The per-layer numbers the responses carry, plus the ping floor.
void serveLayerMetrics(const std::vector<Record>& records,
                       const std::vector<double>& pingUs, double wallS,
                       double serverCpuMs, Metrics& m) {
  std::vector<double> overhead, queueMs, runMs;
  double hits = 0, misses = 0;
  std::int64_t refused = 0;
  for (const Record& r : records) {
    if (r.code == 429 || r.code == 503) ++refused;
    if (r.transportError || r.code != 200) continue;
    overhead.push_back(r.rttMs * 1e3 - static_cast<double>(r.queueUs + r.runUs));
    queueMs.push_back(static_cast<double>(r.queueUs) / 1e3);
    runMs.push_back(static_cast<double>(r.runUs) / 1e3);
    hits += static_cast<double>(r.hits);
    misses += static_cast<double>(r.misses);
  }
  const auto n = static_cast<std::int64_t>(runMs.size());
  const double ops = std::max<double>(1, static_cast<double>(n));
  m["serve.ping_us"] = {quantile(pingUs, 0.5), "us",
                        static_cast<std::int64_t>(pingUs.size())};
  m["serve.overhead_us"] = {quantile(overhead, 0.5), "us", n};
  m["serve.queue_ms_p99"] = {quantile(queueMs, 0.99), "ms", n};
  m["serve.refused"] = {static_cast<double>(refused), "count",
                        static_cast<std::int64_t>(records.size())};
  m["driver.run_ms_p50"] = {quantile(runMs, 0.5), "ms", n};
  m["driver.run_ms_p99"] = {quantile(runMs, 0.99), "ms", n};
  m["re.hits_per_op"] = {hits / ops, "count", n};
  m["re.misses_per_op"] = {misses / ops, "count", n};
  m["re.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0, "ratio", n};
  m["util.cores_busy"] = {wallS > 0 ? serverCpuMs / (wallS * 1e3) : 0, "cores", 1};
}

std::vector<double> pingFloor(serve::Client& client) {
  std::vector<double> us;
  serve::Request ping;
  ping.kind = serve::Request::Kind::kPing;
  for (int i = 0; i < kPings; ++i) {
    ping.id = i + 1;
    const Clock::time_point t = Clock::now();
    (void)client.roundTrip(ping);
    us.push_back(secondsSince(t) * 1e6);
  }
  return us;
}

/// Closed loop: each client thread keeps up to `depth` requests in flight
/// on its connection (pipelined; answers come back in order), taking inputs
/// from `next(c)` until it runs dry.  Latency is measured from each
/// request's send.  Returns the records and the phase's wall time.
struct LoopResult {
  std::vector<Record> records;
  double wallS = 0;
};

LoopResult closedLoop(std::vector<serve::Client>& clients,
                      const std::vector<ProblemInput>& inputs,
                      const std::function<std::optional<std::size_t>(int)>& next,
                      std::size_t depth = 1) {
  std::vector<std::vector<Record>> perClient(clients.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::deque<std::pair<std::size_t, Clock::time_point>> inFlight;
      std::int64_t id = 0;
      bool dry = false;
      try {
        for (;;) {
          while (!dry && inFlight.size() < depth) {
            const std::optional<std::size_t> index = next(static_cast<int>(c));
            if (!index) {
              dry = true;
              break;
            }
            inFlight.emplace_back(*index, Clock::now());
            clients[c].send(requestFor(inputs[*index], ++id));
          }
          if (inFlight.empty()) break;
          serve::Response response = clients[c].receive();
          perClient[c].push_back(recordOf(std::move(response), inFlight.front().first,
                                          inFlight.front().second));
          inFlight.pop_front();
        }
      } catch (const re::Error& e) {
        // A dead connection loses everything in flight on it.
        for (const auto& [index, sent] : inFlight) {
          perClient[c].push_back(lostRecord(index, sent, e.what()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.wallS = secondsSince(start);
  for (auto& records : perClient) {
    for (Record& r : records) out.records.push_back(std::move(r));
  }
  return out;
}

/// Books a server child that did not exit cleanly as one failed op.
void crashed(const Exit& exit, Ledger& ledger) {
  if (exit.signal != 0 || exit.code != 0) {
    ledger.fail(exit.signal != 0 ? Failure::kSignal : Failure::kExit,
                "server ended with code " + std::to_string(exit.code) +
                    ", signal " + std::to_string(exit.signal));
  }
}

std::mt19937 clientRng(std::uint64_t seed, int client) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(100 + client)};
  return std::mt19937(seq);
}

}  // namespace

Ledger selftestServe(const std::string& workDir) {
  ServerProc server(workDir + "/selftest.sock");
  serve::Client client = std::move(server.connectAll(1).front());
  const ProblemInput in = warmCatalog().front();
  const Record cold = roundTrip(client, in, 0, 1);
  const Record warm = roundTrip(client, in, 0, 2);
  Record tampered = cold;
  std::string& cert = tampered.bytes.certificate;
  const std::size_t digit = cert.find_first_of("0123456789", cert.size() / 2);
  if (digit != std::string::npos) cert[digit] = cert[digit] == '1' ? '2' : '1';
  // Forged: a flipped zero-round verdict under freshly computed checksums,
  // so only the verifier itself can catch it.
  Record forged = cold;
  io::Certificate claim =
      io::certificateFromJson(io::Json::parse(cold.bytes.certificate));
  claim.steps.back().zeroRoundSolvable = !claim.steps.back().zeroRoundSolvable;
  forged.bytes.certificate = io::certificateToJson(claim).dumpPretty();
  Record mutated = warm;
  mutated.bytes.output += "\n";
  std::vector<std::string> verdict(5);
  onLane([&] {
    verdict[0] = checkCertificate(cold.bytes.certificate);
    verdict[1] = checkWarm(cold.bytes, warm.bytes, warm.misses);
    verdict[2] = checkCertificate(tampered.bytes.certificate);
    verdict[3] = checkCertificate(forged.bytes.certificate);
    verdict[4] = checkWarm(cold.bytes, mutated.bytes, mutated.misses);
  });
  Ledger ledger;
  book(ledger, cold, verdict[0]);
  book(ledger, warm, verdict[1]);
  book(ledger, tampered, verdict[2]);
  book(ledger, forged, verdict[3]);
  book(ledger, mutated, verdict[4]);
  client.close();
  (void)server.stop();
  return ledger;
}

int serveMain(const std::vector<std::string>& args) {
  serve::ServeConfig config;
  config.unixSocketPath = argValue(args, "--unix");
  if (config.unixSocketPath.empty()) {
    std::cerr << "relb_perf serve: need --unix PATH\n";
    return 2;
  }
  if (std::find(args.begin(), args.end(), "--trace") != args.end()) {
    obs::Tracer::global().addSink(std::make_shared<obs::SpanAggregator>());
  }
  serve::Server server(config);
  server.start();
  std::cout << "listening" << std::endl;
  // Serve until the parent closes our stdin.
  char buf[256];
  while (::read(0, buf, sizeof(buf)) > 0) {
  }
  server.stop();
  return 0;
}

namespace {

/// Sends the catalog once over the clients (the set-up warm-up); returns
/// the answers by catalog index.
std::vector<Record> warmUp(std::vector<serve::Client>& clients,
                           const std::vector<ProblemInput>& catalog) {
  std::vector<Record> cold(catalog.size());
  std::atomic<std::size_t> nextWarm{0};
  std::vector<std::thread> threads;
  for (serve::Client& client : clients) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = nextWarm++) < catalog.size();) {
        cold[i] = roundTrip(client, catalog[i], i, static_cast<std::int64_t>(i + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return cold;
}

}  // namespace

RunOutcome runServeWarm(const RunConfig& config) {
  RunOutcome out;
  const std::vector<ProblemInput> catalog = warmCatalog();
  const std::string socket = config.workDir + "/warm.sock";

  // Set-up, kSetups times: start a server and warm its core with the
  // catalog over every connection.  The last one serves the timed phase;
  // its cold answers are the references the warm ones must repeat.
  Ledger setupLedger;
  std::vector<double> setupS;
  std::unique_ptr<ServerProc> server;
  std::vector<serve::Client> clients;
  std::vector<Record> cold, firstCold;
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();
    if (server != nullptr) crashed(server->stop(), setupLedger);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProc>(socket);
    clients = server->connectAll(kClients);
    cold = warmUp(clients, catalog);
    clients.erase(clients.begin() + kWarmClients, clients.end());
    setupS.push_back(secondsSince(t0));
    if (s == 0) firstCold = cold;
  }

  // The cold answers: 200, verified certificates, published bounds met,
  // and the same bytes in every set-up.
  std::vector<std::string> coldVerdict(catalog.size());
  onLanes(catalog.size(), [&](std::size_t i) {
    std::string why = checkCertificate(cold[i].bytes.certificate);
    if (why.empty()) why = checkBound(cold[i].bytes.output, catalog[i].publishedBound);
    if (why.empty() && (cold[i].bytes.output != firstCold[i].bytes.output ||
                        cold[i].bytes.certificate != firstCold[i].bytes.certificate)) {
      why = "cold bytes differ between set-ups";
    }
    coldVerdict[i] = why.empty() ? "" : catalog[i].name + ": " + why;
  });
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    book(setupLedger, cold[i], coldVerdict[i]);
  }

  std::vector<double> pingUs;
  if (config.trace) pingUs = pingFloor(clients[0]);

  // Timed: the serve-coldstart problems (hardCatalog), warm.  Every client
  // walks its own seeded shuffle of them, in whole passes -- it stops at
  // the first pass boundary after the deadline, so the completed ops hold
  // every entry equally often.
  std::vector<std::size_t> timed;
  for (const ProblemInput& hard : hardCatalog()) {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (catalog[i].name == hard.name) timed.push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> order(kWarmClients, timed);
  std::vector<std::mt19937> rngs;
  std::vector<std::size_t> pos(kWarmClients, 0);
  for (int c = 0; c < kWarmClients; ++c) rngs.push_back(clientRng(config.seed, c));
  Clock::time_point deadline;
  const auto next = [&](int c) -> std::optional<std::size_t> {
    const auto uc = static_cast<std::size_t>(c);
    if (pos[uc] % timed.size() == 0) {
      if (Clock::now() >= deadline) return std::nullopt;
      std::shuffle(order[uc].begin(), order[uc].end(), rngs[uc]);
    }
    return order[uc][pos[uc]++ % timed.size()];
  };

  const auto phase = [&](double seconds, std::vector<Record>* keep) {
    Segment seg;
    const double cpu0 = procCpuMs(server->pid());
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    LoopResult loop = closedLoop(clients, catalog, next);
    seg.cpuMs = procCpuMs(server->pid()) - cpu0;
    seg.wallS = loop.wallS;
    seg.peakMb = procPeakRssMb(server->pid());
    for (const Record& r : loop.records) {
      book(seg.ledger, r,
           r.code == 200 ? checkWarm(cold[r.input].bytes, r.bytes, r.misses) : "");
    }
    if (keep != nullptr) *keep = std::move(loop.records);
    return seg;
  };

  Ledger ledger;
  if (!config.trace) {
    const Segment seg = phase(config.seconds, nullptr);
    endToEndMetrics({seg}, setupS, out.metrics);
    ledger = seg.ledger;
  } else {
    // Half the time on the set-up server, half on a fresh server that
    // records every request's spans; the throughput ratio is the tracing
    // overhead.  The traced server is warmed off the clock, and its cold
    // answers must repeat the untraced server's bytes.
    const Segment plain = phase(config.seconds / 2, nullptr);
    clients.clear();
    crashed(server->stop(), setupLedger);
    server = std::make_unique<ServerProc>(socket, true);
    clients = server->connectAll(kClients);
    const std::vector<Record> tracedCold = warmUp(clients, catalog);
    clients.erase(clients.begin() + kWarmClients, clients.end());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const Record& r = tracedCold[i];
      book(setupLedger, r,
           r.code == 200 && (r.bytes.output != cold[i].bytes.output ||
                             r.bytes.certificate != cold[i].bytes.certificate)
               ? catalog[i].name + ": traced server's cold bytes differ"
               : "");
    }
    std::vector<Record> records;
    const Segment traced = phase(config.seconds / 2, &records);
    serveLayerMetrics(records, pingUs, traced.wallS, traced.cpuMs, out.metrics);
    out.metrics["obs.trace_overhead_frac"] = traceOverhead({plain}, {traced});
    ledger = plain.ledger;
    ledger.merge(traced.ledger);
  }
  clients.clear();
  crashed(server->stop(), ledger);
  server.reset();
  out.ledger = setupLedger;
  out.ledger.merge(ledger);
  return out;
}

namespace {

/// A workload cut into segments, each served by a fresh server.
struct SegmentedSpec {
  const char* socketName;
  /// Connections, and requests in flight on each.
  int clients;
  std::size_t depth;
  /// The requests of one segment, each sent once.
  std::function<std::vector<ProblemInput>(std::size_t segment)> inputs;
  /// Further oracles for a 200 answer whose certificate verified, run in
  /// request order ("" = correct).
  std::function<std::string(const ProblemInput&, const Record&)> check;
  /// Work of each set-up before the server starts (may be empty).
  std::function<void()> prepare;
};

/// Set-up is `prepare`, then starting a server, connecting and one answered
/// ping, kSetups times.  Then whole segments run until the time is up;
/// restarts and the oracles are off the clock.  With tracing, segments
/// that start after half the time run on servers that record every
/// request's spans.
RunOutcome runSegmented(const RunConfig& config, const SegmentedSpec& spec) {
  RunOutcome out;
  const std::string socket = config.workDir + "/" + spec.socketName;
  std::vector<ProblemInput> inputs = spec.inputs(0);
  std::vector<double> setupS;
  std::unique_ptr<ServerProc> server;
  std::vector<serve::Client> clients;
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();
    if (server != nullptr) crashed(server->stop(), out.ledger);
    const Clock::time_point t0 = Clock::now();
    if (spec.prepare) spec.prepare();
    server = std::make_unique<ServerProc>(socket);
    clients = server->connectAll(spec.clients);
    serve::Request ping;
    ping.kind = serve::Request::Kind::kPing;
    (void)clients[0].roundTrip(ping);
    setupS.push_back(secondsSince(t0));
  }
  std::vector<double> pingUs;
  if (config.trace) pingUs = pingFloor(clients[0]);

  std::vector<Segment> plain, traced;
  std::vector<Record> tracedRecords;
  double wallS = 0;
  for (std::size_t segment = 0; wallS < config.seconds; ++segment) {
    const bool tracedPart = config.trace && wallS >= config.seconds / 2;
    if (segment > 0) {
      clients.clear();
      crashed(server->stop(), out.ledger);
      inputs = spec.inputs(segment);
      server = std::make_unique<ServerProc>(socket, tracedPart);
      clients = server->connectAll(spec.clients);
    }
    std::atomic<std::size_t> nextIndex{0};
    const double cpu0 = procCpuMs(server->pid());
    LoopResult loop = closedLoop(clients, inputs,
                                 [&](int) -> std::optional<std::size_t> {
                                   const std::size_t i = nextIndex++;
                                   if (i >= inputs.size()) return std::nullopt;
                                   return i;
                                 },
                                 spec.depth);
    Segment seg;
    seg.cpuMs = procCpuMs(server->pid()) - cpu0;
    seg.wallS = loop.wallS;
    seg.peakMb = procPeakRssMb(server->pid());
    std::vector<std::string> verdict(loop.records.size());
    onLanes(loop.records.size(), [&](std::size_t i) {
      if (loop.records[i].code == 200) {
        verdict[i] = checkCertificate(loop.records[i].bytes.certificate);
      }
    });
    for (std::size_t i = 0; i < loop.records.size(); ++i) {
      const Record& r = loop.records[i];
      if (r.code == 200 && verdict[i].empty() && spec.check) {
        verdict[i] = spec.check(inputs[r.input], r);
      }
      book(seg.ledger, r, verdict[i]);
    }
    if (tracedPart) {
      for (Record& r : loop.records) {
        r.bytes = {};
        tracedRecords.push_back(std::move(r));
      }
    }
    wallS += seg.wallS;
    (tracedPart ? traced : plain).push_back(std::move(seg));
  }
  clients.clear();
  crashed(server->stop(), out.ledger);
  server.reset();

  if (!config.trace) {
    endToEndMetrics(plain, setupS, out.metrics);
  } else {
    double tracedWallS = 0, tracedCpuMs = 0;
    for (const Segment& seg : traced) {
      tracedWallS += seg.wallS;
      tracedCpuMs += seg.cpuMs;
    }
    serveLayerMetrics(tracedRecords, pingUs, tracedWallS, tracedCpuMs, out.metrics);
    out.metrics["obs.trace_overhead_frac"] = traceOverhead(plain, traced);
  }
  for (const std::vector<Segment>* part : {&plain, &traced}) {
    for (const Segment& seg : *part) out.ledger.merge(seg.ledger);
  }
  return out;
}

}  // namespace

RunOutcome runServeCold(const RunConfig& config) {
  return runSegmented(
      config, {"cold.sock", kClients, kColdDepth,
               [&](std::size_t segment) {
                 return coldStream(config.seed * 7919 + segment, kColdSegment);
               },
               nullptr, nullptr});
}

RunOutcome runServeColdStart(const RunConfig& config) {
  const std::vector<ProblemInput> catalog = hardCatalog();
  // Set-up computes the expected answers: the same requests through
  // driver::run in this process, each on a fresh core, one per lane.  Every
  // served answer must repeat those bytes, and every set-up the first one's.
  std::map<std::string, ServedBytes> expected;
  std::string setupDiffers;
  const auto prepare = [&] {
    std::vector<ServedBytes> answers(catalog.size());
    onLanes(catalog.size(), [&](std::size_t i) {
      driver::RunRequest request;
      request.nodeSpec = catalog[i].nodeSpec;
      request.edgeSpec = catalog[i].edgeSpec;
      request.maxSteps = catalog[i].maxSteps;
      request.numThreads = 1;
      request.captureCert = true;
      driver::RunResult result = driver::run(request);
      answers[i] = {std::move(result.output), std::move(result.certificateBytes)};
    });
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const auto [it, inserted] = expected.emplace(catalog[i].name, answers[i]);
      if (!inserted && (it->second.output != answers[i].output ||
                        it->second.certificate != answers[i].certificate)) {
        setupDiffers = catalog[i].name + ": in-process answers differ between set-ups";
      }
    }
  };
  RunOutcome out = runSegmented(
      config,
      {"coldstart.sock", 1, 1,
       [&](std::size_t segment) {
         std::vector<ProblemInput> order = catalog;
         std::mt19937 rng = clientRng(config.seed * 7919 + segment, 0);
         std::shuffle(order.begin(), order.end(), rng);
         return order;
       },
       [&](const ProblemInput& in, const Record& r) -> std::string {
         std::string why = checkBound(r.bytes.output, in.publishedBound);
         const ServedBytes& want = expected.at(in.name);
         if (why.empty() && (want.output != r.bytes.output ||
                             want.certificate != r.bytes.certificate)) {
           why = "served bytes differ from driver::run's";
         }
         return why.empty() ? "" : in.name + ": " + why;
       },
       prepare});
  if (!setupDiffers.empty()) out.ledger.fail(Failure::kOracle, setupDiffers);
  return out;
}

}  // namespace relb::perf
