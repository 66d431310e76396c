// relb_perf: the end-to-end benchmark program (README.md in this directory).
//
// One binary plays every role, so a crash in the program under test stays in
// the process that hit it:
//   relb_perf run   -- one closed-loop run: set-up, timed phase, oracles,
//                      result JSON (its last stdout line);
//   relb_perf serve -- hosts one serve::Server with its default lanes;
//   relb_perf op    -- one oneshot-cold op in a fresh process;
//   relb_perf worker -- runs localsim ops one after another, as asked on
//                      its stdin;
//   relb_perf probe -- the traced run's layer probes for one problem;
//   relb_perf selftest -- shows each oracle turns a bad op into one failure.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "re/problem.hpp"

namespace relb::perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Set-ups per run (setup_s is their median) and the time limit on any one
/// child process.  A process-per-op workload's set-up is one no-op child,
/// a few milliseconds, so it takes the median of more of them.
inline constexpr int kSetups = 5;
inline constexpr int kProcessSetups = 50;
inline constexpr double kChildTimeout = 120;

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Op accounting
// ---------------------------------------------------------------------------

/// Why an op failed.  kOracle marks a wrong output (it makes the run
/// incorrect); the other reasons mark an op that produced no usable output.
enum class Failure { kRefused, kExit, kSignal, kTransport, kOracle };

/// Every attempted op of a phase ends here exactly once.
class Ledger {
 public:
  void ok(double latencyMs);
  void fail(Failure why, const std::string& detail);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] std::int64_t oracleFailures() const { return oracle_; }
  [[nodiscard]] std::int64_t signals() const { return signals_; }
  [[nodiscard]] const std::vector<double>& latenciesMs() const {
    return latencies_;
  }
  /// The first few failure details (for stderr).
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  void merge(const Ledger& other);

 private:
  std::int64_t attempted_ = 0, failed_ = 0, oracle_ = 0, signals_ = 0;
  std::vector<double> latencies_;
  std::vector<std::string> notes_;
};

/// A stretch of a timed phase: its ops, wall time, the working process's
/// CPU time, and its peak resident memory.  serve-coldstart and serve-cold
/// cut their phase into one segment per server; the other workloads run one
/// segment per phase.
struct Segment {
  Ledger ledger;
  double wallS = 0, cpuMs = 0, peakMb = 0;
};

/// The end-to-end metrics of a phase but ok_frac, each the median of its
/// per-segment values; setup_s is the median of `setupS`.  ok_frac comes
/// from the run's final ledger, which also holds set-up ops and server
/// exits.
void endToEndMetrics(const std::vector<Segment>& segments,
                     const std::vector<double>& setupS, Metrics& m);

/// obs.trace_overhead_frac: 1 - traced / untraced throughput.
[[nodiscard]] Metric traceOverhead(const std::vector<Segment>& plain,
                                   const std::vector<Segment>& traced);

/// The value of `--name` in `args`, or `fallback`.
[[nodiscard]] std::string argValue(const std::vector<std::string>& args,
                                   const std::string& name,
                                   const std::string& fallback = "");

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

/// Path of the running relb_perf binary (children re-execute it).
[[nodiscard]] std::string selfExe();

/// A child process with its stdin and stdout piped to us.
struct Child {
  pid_t pid = -1;
  int stdinFd = -1;   // write end
  int stdoutFd = -1;  // read end
};

/// Spawns `relb_perf args...`.  Throws re::Error on failure.
[[nodiscard]] Child spawnSelf(const std::vector<std::string>& args);

/// How a child ended.
struct Exit {
  int code = -1;    // exit code, or -1 when killed
  int signal = 0;   // terminating signal, 0 when it exited
  double cpuMs = 0; // user + system CPU of the child
  double maxRssMb = 0;
};

/// Reads the child's stdout to EOF, then reaps it; kills it (SIGKILL) if it
/// has not ended `timeoutSeconds` after the call.
[[nodiscard]] Exit finishChild(Child& child, std::string& out,
                               double timeoutSeconds);

/// Reads one '\n'-terminated line from `fd` (without the newline); false on
/// EOF before any byte.
[[nodiscard]] bool readLine(int fd, std::string& line);

/// User + system CPU milliseconds and the peak resident set (VmHWM, MiB) of
/// a live process, from /proc.
[[nodiscard]] double procCpuMs(pid_t pid);
[[nodiscard]] double procPeakRssMb(pid_t pid);

/// Runs `fn` on a util::ThreadPool lane, where the library's nested
/// parallel sections run inline -- the context every served request runs
/// in.  Rethrows what `fn` throws.
void onLane(const std::function<void()>& fn);

// ---------------------------------------------------------------------------
// Inputs (pure functions of the seed)
// ---------------------------------------------------------------------------

/// One engine request in the CLI's positional grammar.
struct ProblemInput {
  std::string name;
  std::string nodeSpec;
  std::string edgeSpec;
  int maxSteps = 3;
  /// Published bound the output's automatic lower bound must reach (built-in
  /// families at their defaults); -1 = none.
  long publishedBound = -1;
};

/// The ';'-separated spec of a problem's node / edge constraint.
[[nodiscard]] std::string nodeSpecOf(const re::Problem& p);
[[nodiscard]] std::string edgeSpecOf(const re::Problem& p);

/// serve-warm: the item-1 request plus the built-in families on the Delta
/// <= 3 grid.  Fixed; the seed only orders the timed requests.
[[nodiscard]] std::vector<ProblemInput> warmCatalog();

/// serve-warm's timed requests and serve-coldstart's: the catalog's
/// entries that are 0-round solvable in none of the three port models --
/// every request for one runs round elimination -- but the three answered
/// warm in about 1 s, 6 ms and 1 ms.  That leaves 5 (warm: about 13, 22,
/// 54, 300 and 300 ms), so p50 falls in the middle of one entry's samples,
/// the item-1 request's.  The 28 0-round solvable entries are answered in
/// well under a millisecond, which is mostly thread wake-ups and scheduling.
[[nodiscard]] std::vector<ProblemInput> hardCatalog();

/// serve-cold: `count` distinct seeded gen::randomProblem requests (<= 4
/// labels, Delta <= 3, 3 steps) whose speedup iteration stays within
/// kColdMaxLabels labels -- the driver's merge target -- at every step.
/// About one draw in eight is screened out; left in, a few of them per
/// seed ran the cold merge search for 0.5-9 s each and set the run's
/// totals.
inline constexpr int kColdMaxLabels = 10;
[[nodiscard]] std::vector<ProblemInput> coldStream(std::uint64_t seed,
                                                   std::size_t count);

/// oneshot-cold: one CLI-shaped op.
struct OneshotOp {
  std::string name;
  std::vector<std::string> argv;  // driver::parseArgs grammar, argv[0] incl.
  long publishedBound = -1;       // family ops: the definition's bound
};
[[nodiscard]] std::vector<OneshotOp> oneshotOps();

/// localsim: one runSim instance.
struct LocalOp {
  bool boundedDegree = false;
  std::uint64_t nodes = 0;
  std::uint64_t seed = 0;
};
/// localsim's runSim width.  Serial: at width 0 on 4 cores the parallel
/// rounds made the run's latency depend on how the host schedules four
/// threads, and at width >= 2 on these tree sizes the ThreadPool
/// stale-batch race kills the process within a few ops (README.md).
inline constexpr int kLocalWidth = 1;
/// localsim cuts each phase into this many stretches of equal length; its
/// end-to-end metrics are medians over them, so a burst of host noise in
/// one stretch moves them little.
inline constexpr int kLocalSegments = 6;
/// The `index`-th localsim op of a run: `kLocalDistinct` instances cycled,
/// so each seed repeats and its rounds / checksum can be compared.
inline constexpr std::size_t kLocalDistinct = 8;
[[nodiscard]] LocalOp localOp(std::uint64_t seed, std::size_t index);

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// "" when `bytes` decode as a certificate that io::verifyCertificate
/// accepts, else why not.
[[nodiscard]] std::string checkCertificate(const std::string& bytes);

/// "" when the output's "automatic lower bound: >= N" reaches `published`
/// (or published < 0).
[[nodiscard]] std::string checkBound(const std::string& output,
                                     long published);

/// A served response reduced to what the warm oracle compares.
struct ServedBytes {
  std::string output;
  std::string certificate;
};
/// "" when a warm response repeats the cold bytes and paid 0 misses.
[[nodiscard]] std::string checkWarm(const ServedBytes& cold,
                                    const ServedBytes& warm,
                                    std::int64_t misses);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir;  // scratch for sockets and children's files
};

struct RunOutcome {
  Ledger ledger;
  Metrics metrics;
};

[[nodiscard]] RunOutcome runServeWarm(const RunConfig& config);
[[nodiscard]] RunOutcome runServeCold(const RunConfig& config);
[[nodiscard]] RunOutcome runServeColdStart(const RunConfig& config);
[[nodiscard]] RunOutcome runOneshotCold(const RunConfig& config);
[[nodiscard]] RunOutcome runLocalsim(const RunConfig& config);

/// Child entry points (argv after the subcommand).
int serveMain(const std::vector<std::string>& args);
int opMain(const std::vector<std::string>& args);
int probeMain(const std::vector<std::string>& args);
int workerMain(const std::vector<std::string>& args);

/// Runs the layer probes for `workload`, one child process per problem, and
/// adds the re.* / family.* / io.* metrics; a crashed child counts in
/// `crashes` and loses only its problem's samples.
void probeLayers(const RunConfig& config, Metrics& metrics,
                 std::int64_t& crashes);

/// Self-test cases, each through the real op and accounting path.  Serve:
/// a good cold and warm answer, a tampered and a forged certificate, a
/// mutated warm answer.  Child: a clean op child and one killed by SIGSEGV,
/// and a localsim worker that answers one op and dies by SIGSEGV in the
/// next.
[[nodiscard]] Ledger selftestServe(const std::string& workDir);
[[nodiscard]] Ledger selftestChild(const std::string& workDir);

/// Every per-layer metric name with its unit, in report order.  A workload
/// that does not reach a layer reports 0 with 0 samples.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
perLayerMetricNames();

}  // namespace relb::perf
