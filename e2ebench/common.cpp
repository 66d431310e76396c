// Statistics, op accounting and process helpers.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "perf.hpp"
#include "re/types.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace relb::perf {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Ledger::ok(double latencyMs) {
  ++attempted_;
  latencies_.push_back(latencyMs);
}

void Ledger::fail(Failure why, const std::string& detail) {
  ++attempted_;
  ++failed_;
  if (why == Failure::kOracle) ++oracle_;
  if (why == Failure::kSignal) ++signals_;
  if (notes_.size() < 8) notes_.push_back(detail);
}

void Ledger::merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  oracle_ += other.oracle_;
  signals_ += other.signals_;
  latencies_.insert(latencies_.end(), other.latencies_.begin(),
                    other.latencies_.end());
  for (const std::string& note : other.notes_) {
    if (notes_.size() < 8) notes_.push_back(note);
  }
}

void endToEndMetrics(const std::vector<Segment>& segments,
                     const std::vector<double>& setupS, Metrics& m) {
  std::vector<double> ops, tput, p50, p90, cpu, peak;
  for (const Segment& seg : segments) {
    const auto& lat = seg.ledger.latenciesMs();
    if (lat.empty()) continue;
    const auto n = static_cast<double>(lat.size());
    ops.push_back(n);
    tput.push_back(n / seg.wallS);
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    cpu.push_back(seg.cpuMs / n);
    peak.push_back(seg.peakMb);
  }
  // A percentile rests on one segment's ops, so that is its sample count.
  const auto perSegment = static_cast<std::int64_t>(quantile(ops, 0.5));
  const auto segs = static_cast<std::int64_t>(tput.size());
  m["setup_s"] = {quantile(setupS, 0.5), "s", static_cast<std::int64_t>(setupS.size())};
  m["throughput_ops_s"] = {quantile(tput, 0.5), "1/s", segs};
  m["latency_p50_ms"] = {quantile(p50, 0.5), "ms", perSegment};
  m["latency_p90_ms"] = {quantile(p90, 0.5), "ms", perSegment};
  m["peak_rss_mb"] = {quantile(peak, 0.5), "MiB", segs};
  m["cpu_ms_per_op"] = {quantile(cpu, 0.5), "ms", segs};
}

Metric traceOverhead(const std::vector<Segment>& plain,
                     const std::vector<Segment>& traced) {
  Metrics plainM, tracedM;
  endToEndMetrics(plain, {}, plainM);
  endToEndMetrics(traced, {}, tracedM);
  const double base = plainM["throughput_ops_s"].value;
  return {base > 0 ? 1.0 - tracedM["throughput_ops_s"].value / base : 0, "ratio",
          tracedM["throughput_ops_s"].samples};
}

std::string argValue(const std::vector<std::string>& args, const std::string& name,
                     const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return args[i + 1];
  }
  return fallback;
}

std::string selfExe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw re::Error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

Child spawnSelf(const std::vector<std::string>& args) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw re::Error("pipe failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw re::Error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);

  const std::string exe = selfExe();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  pid_t pid = -1;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  if (rc != 0) {
    ::close(in[1]);
    ::close(out[0]);
    throw re::Error(std::string("posix_spawn failed: ") + std::strerror(rc));
  }
  return Child{pid, in[1], out[0]};
}

bool readLine(int fd, std::string& line) {
  line.clear();
  char ch = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return !line.empty();
    if (ch == '\n') return true;
    line += ch;
  }
}

Exit finishChild(Child& child, std::string& out, double timeoutSeconds) {
  const Clock::time_point start = Clock::now();
  const auto remainingMs = [&] {
    return static_cast<int>(
        std::max(0.0, (timeoutSeconds - secondsSince(start)) * 1000.0));
  };
  bool killed = false;
  if (child.stdinFd >= 0) {
    ::close(child.stdinFd);
    child.stdinFd = -1;
  }
  char buf[65536];
  while (child.stdoutFd >= 0) {
    pollfd p{child.stdoutFd, POLLIN, 0};
    const int ready = ::poll(&p, 1, std::min(remainingMs(), 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      if (remainingMs() == 0 && !killed) {
        ::kill(child.pid, SIGKILL);
        killed = true;
      }
      continue;
    }
    const ssize_t n = ::read(child.stdoutFd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(child.stdoutFd);
      child.stdoutFd = -1;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  Exit exit;
  int status = 0;
  rusage usage{};
  while (::wait4(child.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  child.pid = -1;
  if (WIFEXITED(status)) exit.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) exit.signal = WTERMSIG(status);
  exit.cpuMs = (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3) +
               static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
  exit.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

double procCpuMs(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double procPeakRssMb(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

void onLane(const std::function<void()>& fn) {
  util::ThreadPool pool(2);
  std::exception_ptr error;
  pool.forEachIndex(2, [&](std::size_t lane) {
    if (lane != 0) return;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace relb::perf
