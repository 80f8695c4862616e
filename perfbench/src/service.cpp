// The service workload.
//
// One esv-serve daemon (journal on, batch sync) receives an open-loop job
// stream from one client process, mixing two classes:
//   cold  in-process jobs on content the daemon has not seen (they run a
//         campaign and write the journal); seeds_per_s
//   warm  resubmits of content whose report the client already holds (they
//         read the cache); p50_ms
// The cold-job median is a per-layer figure: cold latency is bimodal on a
// shared host (the same job runs about 1.5x slower in some stretches of a
// run), and its median jumps between the two modes from run to run (26%
// spread over ten runs), while the interquartile mean behind seeds_per_s
// moves smoothly. The warm p90 is a per-layer figure too, because that
// sub-millisecond tail follows the host's CPU steal (0.5-3 ms between runs).
// Jobs are sent at fixed spacing regardless of replies; latency runs from
// each job's due time to its report frame. The client speaks the wire
// protocol through esv::dist's framing and JSON codec and checks every report
// against expected.tsv; a warm report must be byte-identical to the cold
// report of the same content.
//
// Distributed jobs (workers=2) are measured in the traced run only, by a
// closed-loop probe of cold in-process and distributed jobs of matched
// content on a fresh daemon: their latency is bimodal (a worker reaped
// just after its socket closes costs the broker a 50 ms poll), which makes
// their percentiles too unsteady to gate on and would leak into the cold
// jobs queued behind them.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <thread>

#include "common.hpp"
#include "dist/wire.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

// --- stream shape ------------------------------------------------------------

/// Cold jobs arrive at about a twelfth of the daemon's cold capacity (one
/// executor, ~7 ms per cold job), so queueing stays short and the tail is
/// the service's own rather than the host's.
constexpr double kOfferedPerSecond = 24.0;
constexpr std::uint64_t kSeedsPerJob = 2;
/// Per block of 10 jobs: 5 cold, 5 warm, in a seed-shuffled order.
constexpr int kBlock = 10, kColdPerBlock = 5;
/// The traced run's distributed-job probe: pairs of one cold in-process and
/// one distributed job, 3 seeds each (a width the stream never uses, so
/// the probe's content is new to the daemon).
constexpr int kDistProbePairs = 20;
constexpr std::uint64_t kDistProbeWidth = 3;
/// A warm job resubmits content of a cold job due at least this much
/// earlier, whose report has then long arrived in a healthy run.
constexpr double kWarmLagSeconds = 0.5;
/// Open-loop health: a stream is invalid when the 99th percentile of send
/// lateness exceeds this, or when a warm job misses the cache.
constexpr double kLagLimitMs = 20.0;
constexpr int kStreamAttempts = 3;
constexpr unsigned kTenants = 2;
constexpr unsigned kDistWorkers = 2;
constexpr int kSetupReps = 15;
/// Two studies of about the same per-job cost, so each class's latency is
/// one mode rather than one per study; cold and dist jobs alternate between
/// them, so every seed gives each class the same study mix.
const char* const kStudies[] = {"blinker", "can_transport"};

enum class JobClass { kCold, kWarm, kDist };
const char* class_name(JobClass c) {
  return c == JobClass::kCold ? "cold" : c == JobClass::kWarm ? "warm" : "dist";
}

struct PlannedJob {
  JobClass cls = JobClass::kCold;
  std::size_t study = 0;
  std::uint64_t lo = 0;
  std::uint64_t width = kSeedsPerJob;
  std::size_t source = 0;  // warm: index of the cold job it repeats
  double due_s = 0.0;      // offset from the stream start
};

/// The job stream, a pure function of the workload seed and its length.
std::vector<PlannedJob> plan_stream(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const auto count =
      static_cast<std::size_t>(std::floor(seconds * kOfferedPerSecond));
  // Distinct content for every cold and dist job: per study, a shuffled
  // list of seed windows.
  std::vector<std::vector<std::uint64_t>> windows(std::size(kStudies));
  for (auto& list : windows) {
    for (std::uint64_t lo = 1; lo + kSeedsPerJob - 1 <= kSeedPool; ++lo) {
      list.push_back(lo);
    }
    std::shuffle(list.begin(), list.end(), rng);
  }
  std::map<JobClass, std::size_t> per_class;

  std::vector<PlannedJob> jobs;
  std::vector<JobClass> block;
  for (std::size_t i = 0; i < count; ++i) {
    if (block.empty()) {
      for (int k = 0; k < kBlock; ++k) {
        block.push_back(k < kColdPerBlock ? JobClass::kCold : JobClass::kWarm);
      }
      std::shuffle(block.begin(), block.end(), rng);
    }
    PlannedJob job;
    job.cls = block.back();
    block.pop_back();
    job.due_s = static_cast<double>(i) / kOfferedPerSecond;
    if (job.cls == JobClass::kWarm) {
      std::vector<std::size_t> sources;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].cls == JobClass::kCold &&
            jobs[j].due_s + kWarmLagSeconds <= job.due_s) {
          sources.push_back(j);
        }
      }
      if (sources.empty()) {
        job.cls = JobClass::kCold;  // nothing old enough to repeat yet
      } else {
        job.source = sources[rng() % sources.size()];
        job.study = jobs[job.source].study;
        job.lo = jobs[job.source].lo;
      }
    }
    if (job.cls != JobClass::kWarm) {
      job.study = per_class[job.cls]++ % std::size(kStudies);
      auto& list = windows[job.study];
      if (list.empty()) {
        throw std::runtime_error("service stream needs more distinct content");
      }
      job.lo = list.back();
      list.pop_back();
    }
    jobs.push_back(job);
  }
  return jobs;
}

// --- wire --------------------------------------------------------------------

using esv::dist::Json;

/// Sends one frame on a non-blocking socket, waiting out a full send buffer.
void send_frame(int fd, std::string_view payload) {
  const std::string frame = esv::dist::encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

struct Conn {
  int fd = -1;
  esv::dist::FrameReader reader;
  std::deque<std::size_t> awaiting_ack;  // submitted jobs, in send order

  /// Feeds what the socket has; false once the peer has closed it.
  bool receive() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      return true;  // EAGAIN
    }
  }
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- the daemon --------------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& bin_dir, const std::string& dir)
      : socket_(dir + "/serve.sock"), journal_(dir + "/serve.journal") {
    std::filesystem::remove(socket_);
    std::filesystem::remove(journal_);
    // The broker of a distributed job puts its socket under TMPDIR; keep it
    // inside the work directory.
    const std::string tmp = dir + "/tmp";
    std::filesystem::create_directories(tmp);
    const std::string binary = bin_dir + "/esv-serve";
    const auto started = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::setenv("TMPDIR", tmp.c_str(), 1);
      const int null = ::open("/dev/null", O_RDWR);
      ::dup2(null, 1);
      ::dup2(null, 2);
      const std::string socket_arg = "--socket=" + socket_;
      const std::string journal_arg = "--journal=" + journal_;
      ::execl(binary.c_str(), binary.c_str(), socket_arg.c_str(),
              journal_arg.c_str(), "--journal-sync=batch", "--concurrency=1",
              "--queue-limit=4096", "--quiet", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    // Ready once the socket accepts a connection.
    for (;;) {
      const int fd = connect_unix(socket_);
      if (fd >= 0) {
        ::close(fd);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("esv-serve exited during start-up (" +
                                 binary + ")");
      }
      if (seconds_between(started, Clock::now()) > 30.0) {
        stop();
        throw std::runtime_error("esv-serve did not accept within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    startup_s_ = seconds_between(started, Clock::now());
  }
  ~Daemon() { stop(); }

  double startup_s() const { return startup_s_; }
  const std::string& socket_path() const { return socket_; }
  const std::string& journal_path() const { return journal_; }

  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  /// SIGTERM (graceful stop), then SIGKILL after 10 s; always reaped.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto started = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_between(started, Clock::now()) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  std::string journal_;
  pid_t pid_ = -1;
  double startup_s_ = 0.0;
};

// --- one stream --------------------------------------------------------------

struct JobRecord {
  std::int64_t due_ns = 0, sent_ns = 0, accepted_ns = 0, progress_ns = 0,
               report_ns = 0;
  std::uint64_t id = 0;
  bool cached = false;
  int exit_code = -1;
  std::string report;  // the report's JSON text
  std::size_t frame_bytes = 0;
  std::string failure;
};

struct StreamOutcome {
  std::vector<JobRecord> records;
  std::vector<double> lag_ms;
  double cache_hit_ratio = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t journal_bytes = 0;
};

esv::campaign::CampaignConfig job_config(const std::vector<Study>& studies,
                                         const PlannedJob& job) {
  const CampaignKind& derived = campaign_kind("derived");
  esv::campaign::CampaignConfig config = make_config(
      derived, studies[job.study], job.lo, job.lo + job.width - 1, 1);
  if (job.cls == JobClass::kDist) config.workers = kDistWorkers;
  return config;
}

StreamOutcome run_stream(Daemon& daemon, const std::vector<Study>& studies,
                         const std::vector<PlannedJob>& plan) {
  StreamOutcome out;
  out.records.resize(plan.size());
  std::vector<std::string> submits;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    submits.push_back(esv::serve::make_submit(
        "tenant-" + std::to_string(i % kTenants),
        job_config(studies, plan[i])));
  }
  std::vector<Conn> conns(kTenants);
  for (Conn& conn : conns) {
    conn.fd = connect_unix(daemon.socket_path());
    if (conn.fd < 0) throw std::runtime_error("cannot connect to esv-serve");
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
  std::map<std::uint64_t, std::size_t> by_id;
  std::size_t next = 0, done = 0;
  bool status_sent = false, status_seen = false;
  const std::int64_t start_ns = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    out.records[i].due_ns =
        start_ns + static_cast<std::int64_t>(plan[i].due_s * 1e9);
  }
  const std::int64_t give_up_ns =
      start_ns + static_cast<std::int64_t>(
                     (plan.empty() ? 0.0 : plan.back().due_s) * 1e9) +
      60'000'000'000LL;

  const auto handle = [&](Conn& conn, const std::string& payload) {
    const std::int64_t t = now_ns();
    const Json frame = Json::parse(payload);
    const std::string type = frame.string_or("type", "");
    if (type == "accepted" || type == "rejected") {
      if (conn.awaiting_ack.empty()) throw std::runtime_error("stray ack");
      const std::size_t i = conn.awaiting_ack.front();
      conn.awaiting_ack.pop_front();
      JobRecord& rec = out.records[i];
      rec.accepted_ns = t;
      if (type == "rejected") {
        rec.failure = "rejected: " + frame.string_or("reason", "");
        ++done;
        return;
      }
      rec.id = frame.u64_or("job", 0);
      rec.cached = frame.bool_or("cached", false);
      by_id[rec.id] = i;
    } else if (type == "progress") {
      const auto it = by_id.find(frame.u64_or("job", 0));
      if (it != by_id.end() && out.records[it->second].progress_ns == 0) {
        out.records[it->second].progress_ns = t;
      }
    } else if (type == "report" || type == "cancelled") {
      const auto it = by_id.find(frame.u64_or("job", 0));
      if (it == by_id.end()) throw std::runtime_error("report for unknown job");
      JobRecord& rec = out.records[it->second];
      rec.report_ns = t;
      ++done;
      if (type == "cancelled") {
        rec.failure = "cancelled";
        return;
      }
      rec.exit_code = static_cast<int>(frame.u64_or("exit", 0));
      rec.report = frame.string_or("report", "");
      rec.frame_bytes = payload.size();
      if (!frame.bool_or("durable", true)) rec.failure = "not durable";
    } else if (type == "status_reply") {
      if (frame.has("cache")) {
        const Json& cache = frame.at("cache");
        const double hits = static_cast<double>(cache.u64_or("hits", 0));
        const double misses = static_cast<double>(cache.u64_or("misses", 0));
        out.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
      }
      out.journal_bytes = frame.u64_or("journal_bytes", 0);
      status_seen = true;
    }
  };

  while (!status_seen) {
    std::int64_t now = now_ns();
    while (next < plan.size() && out.records[next].due_ns <= now) {
      Conn& conn = conns[next % kTenants];
      send_frame(conn.fd, submits[next]);
      out.records[next].sent_ns = now_ns();
      out.lag_ms.push_back(
          (out.records[next].sent_ns - out.records[next].due_ns) / 1e6);
      conn.awaiting_ack.push_back(next);
      ++next;
      now = now_ns();
    }
    if (next == plan.size() && done == plan.size() && !status_sent) {
      send_frame(conns[0].fd, esv::serve::make_status_request());
      status_sent = true;
    }
    if (now > give_up_ns) throw std::runtime_error("service stream stalled");
    std::int64_t wait_ns = 50'000'000;
    if (next < plan.size()) {
      wait_ns = std::max<std::int64_t>(0, out.records[next].due_ns - now);
    }
    pollfd fds[kTenants];
    for (unsigned c = 0; c < kTenants; ++c) fds[c] = {conns[c].fd, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds, kTenants, &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    for (unsigned c = 0; c < kTenants; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool open = conns[c].receive();
      while (const auto payload = conns[c].reader.next()) {
        handle(conns[c], *payload);
      }
      if (!open) throw std::runtime_error("esv-serve closed a connection");
    }
  }
  out.peak_rss_mb = daemon.peak_rss_mb();
  for (Conn& conn : conns) ::close(conn.fd);
  return out;
}

// --- checks ------------------------------------------------------------------

/// Checks one report's per-seed results against the expected answers.
std::string check_report_text(const ExpectedTable& table,
                              const std::string& study, std::uint64_t width,
                              const std::string& report) {
  const Json json = Json::parse(report);
  if (!json.has("seeds") || json.at("seeds").items().size() != width) {
    return "report has no seed table";
  }
  for (const Json& seed : json.at("seeds").items()) {
    const std::uint64_t n = seed.u64_or("seed", 0);
    const Expected* expected = table.find("derived", study, n);
    if (expected == nullptr) return "no expected answer for seed " +
                                    std::to_string(n);
    if (seed.has("error")) {
      return "seed " + std::to_string(n) +
             " errored: " + seed.string_or("error", "");
    }
    std::string letters;
    if (seed.has("verdicts")) {
      for (const Json& v : seed.at("verdicts").items()) {
        letters += v.as_string() == "validated"  ? 'V'
                   : v.as_string() == "violated" ? 'X'
                                                 : 'P';
      }
    }
    const std::uint64_t steps = seed.u64_or("steps", 0);
    const std::uint64_t statements = seed.u64_or("statements", 0);
    if (letters != expected->verdicts || steps != expected->steps ||
        statements != expected->statements) {
      return study + " seed " + std::to_string(n) + ": got " + letters + " " +
             std::to_string(steps) + " " + std::to_string(statements) +
             ", expected " +
             expected->verdicts + " " + std::to_string(expected->steps) + " " +
             std::to_string(expected->statements);
    }
  }
  return "";
}

/// Fills each record's failure from the correctness checks. Returns the
/// number of warm jobs that missed the cache (a health problem, not a
/// wrong answer).
std::size_t check_stream(const ExpectedTable& table,
                         const std::vector<PlannedJob>& plan,
                         StreamOutcome& out) {
  std::size_t warm_misses = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    JobRecord& rec = out.records[i];
    if (!rec.failure.empty()) continue;
    if (rec.exit_code != 0) {
      rec.failure = "exit code " + std::to_string(rec.exit_code);
      continue;
    }
    if (plan[i].cls == JobClass::kWarm) {
      if (!rec.cached) ++warm_misses;
      if (rec.report != out.records[plan[i].source].report) {
        rec.failure = "warm report differs from the cold report";
      }
      continue;
    }
    if (rec.cached) {
      rec.failure = std::string(class_name(plan[i].cls)) +
                    " job was answered from the cache";
      continue;
    }
    rec.failure = check_report_text(table, kStudies[plan[i].study],
                                    plan[i].width, rec.report);
  }
  return warm_misses;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Closed-loop probe: alternating cold in-process and distributed jobs of
/// matched studies and width, each sent after the previous report. Returns
/// latencies by (class, study); wrong reports land in `result`.
std::map<std::pair<JobClass, std::size_t>, std::vector<double>> run_dist_probe(
    Daemon& daemon, const std::vector<Study>& studies,
    const ExpectedTable& table, std::uint64_t seed, RunResult& result) {
  std::map<std::pair<JobClass, std::size_t>, std::vector<double>> latency;
  const int fd = connect_unix(daemon.socket_path());
  if (fd < 0) throw std::runtime_error("cannot connect to esv-serve");
  for (int k = 0; k < 2 * kDistProbePairs; ++k) {
    PlannedJob job;
    job.cls = k % 2 == 0 ? JobClass::kCold : JobClass::kDist;
    job.study = static_cast<std::size_t>(k / 2) % std::size(kStudies);
    job.width = kDistProbeWidth;
    job.lo = 1 + (seed * 7 + static_cast<std::uint64_t>(k) * kDistProbeWidth) %
                     (kSeedPool - kDistProbeWidth);
    const std::int64_t started = now_ns();
    esv::dist::write_frame(
        fd, esv::serve::make_submit("probe", job_config(studies, job)));
    std::string report, failure;
    while (report.empty() && failure.empty()) {
      const std::optional<std::string> payload =
          esv::dist::read_frame(fd);
      if (!payload) {
        throw std::runtime_error("esv-serve closed the probe connection");
      }
      const Json frame = Json::parse(*payload);
      const std::string type = frame.string_or("type", "");
      if (type == "rejected" || type == "cancelled") failure = type;
      if (type == "accepted" && frame.bool_or("cached", false)) {
        failure = "probe job answered from the cache";
      }
      if (type == "report") {
        report = frame.string_or("report", "");
        const std::uint64_t exit = frame.u64_or("exit", 0);
        if (exit != 0) failure = "exit code " + std::to_string(exit);
      }
    }
    const double elapsed = ms(now_ns() - started);
    ++result.attempted;
    if (failure.empty()) {
      failure = check_report_text(table, kStudies[job.study], job.width,
                                  report);
    }
    if (!failure.empty()) {
      ++result.failed;
      result.fail(std::string(class_name(job.cls)) + " probe job: " + failure);
      continue;
    }
    latency[{job.cls, job.study}].push_back(elapsed);
  }
  ::close(fd);
  return latency;
}

}  // namespace

RunResult run_service_workload(const RunOptions& options) {
  ExpectedTable table = ExpectedTable::load(options.expected_path);
  if (options.corrupt_expected) table.corrupt();
  std::vector<Study> studies;
  for (const char* name : kStudies) {
    studies.push_back(load_study(options.data_dir, name));
  }
  std::filesystem::create_directories(options.work_dir);

  // Set-up: daemon start until its socket accepts, median of several.
  std::vector<double> starts;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Daemon daemon(options.bin_dir, options.work_dir);
    starts.push_back(daemon.startup_s());
  }

  const std::vector<PlannedJob> plan =
      plan_stream(options.seed, options.seconds);
  StreamOutcome out;
  std::size_t warm_misses = 0;
  double lag_p99 = 0.0;
  bool healthy = false;
  // An unhealthy stream (the generator ran late, or the service fell so far
  // behind that warm jobs missed the cache) is discarded and run again.
  for (int attempt = 0; attempt < kStreamAttempts && !healthy; ++attempt) {
    Daemon daemon(options.bin_dir, options.work_dir);
    out = run_stream(daemon, studies, plan);
    daemon.stop();
    warm_misses = check_stream(table, plan, out);
    lag_p99 = quantile(out.lag_ms, 0.99);
    healthy = lag_p99 <= kLagLimitMs && warm_misses == 0;
    std::cout << "  stream attempt " << attempt + 1 << ": offered "
              << kOfferedPerSecond << " jobs/s for " << options.seconds
              << " s, send lag p99 " << lag_p99 << " ms (limit "
              << kLagLimitMs << "), max " << quantile(out.lag_ms, 1.0)
              << " ms, warm cache misses " << warm_misses
              << (healthy ? "" : " -> invalid") << "\n";
  }

  RunResult result;
  if (!healthy) {
    result.fail("open-loop stream invalid on every attempt (see above)");
  }
  std::map<JobClass, std::vector<double>> latency_ms, accept_us, queue_ms,
      run_ms;
  double report_bytes = 0, reports = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const JobRecord& rec = out.records[i];
    const JobClass cls = plan[i].cls;
    ++result.attempted;
    if (!rec.failure.empty()) {
      ++result.failed;
      result.fail(std::string(class_name(cls)) + " job " +
                  std::to_string(i) + ": " + rec.failure);
      continue;
    }
    const double latency = ms(rec.report_ns - rec.due_ns);
    latency_ms[cls].push_back(latency);
    accept_us[cls].push_back(ms(rec.accepted_ns - rec.sent_ns) * 1e3);
    if (rec.progress_ns != 0) {
      queue_ms[cls].push_back(ms(rec.progress_ns - rec.accepted_ns));
      run_ms[cls].push_back(ms(rec.report_ns - rec.progress_ns));
    }
    report_bytes += static_cast<double>(rec.frame_bytes);
    reports += 1;
  }
  for (const JobClass cls : {JobClass::kCold, JobClass::kWarm}) {
    std::cout << "  " << class_name(cls) << ": " << latency_ms[cls].size()
              << " samples; latency ms p10/p25/p50/p75/p90/p99";
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      std::cout << " " << quantile(latency_ms[cls], q);
    }
    std::cout << "\n";
  }

  if (!options.trace) {
    result.metrics = {
        {"seeds_per_s",
         static_cast<double>(kSeedsPerJob) /
             (interquartile_mean(latency_ms[JobClass::kCold]) / 1e3),
         "seeds/s"},
        {"setup_s", median(starts), "s"},
        {"peak_rss_mb", out.peak_rss_mb, "MiB"},
        {"p50_ms", quantile(latency_ms[JobClass::kWarm], 0.5), "ms"},
    };
    return result;
  }

  // Per-layer figures come from spans rebuilt from the client's timestamps:
  // one job span per job (due -> report) with accept, queue and run
  // children. The timestamps are the ones the untraced run takes as well,
  // so tracing adds no work to the measured stream.
  SpanRecorder spans;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const JobRecord& rec = out.records[i];
    if (!rec.failure.empty()) continue;
    const std::int32_t job =
        spans.add(std::string("serve.job.") + class_name(plan[i].cls),
                  SpanRecorder::kNoParent, i, rec.due_ns, rec.report_ns);
    spans.add("client.send_lag", job, i, rec.due_ns, rec.sent_ns);
    spans.add("serve.accept", job, i, rec.sent_ns, rec.accepted_ns);
    if (rec.progress_ns != 0) {
      spans.add("serve.queue", job, i, rec.accepted_ns, rec.progress_ns);
      spans.add("serve.run", job, i, rec.progress_ns, rec.report_ns);
    } else {
      spans.add("serve.reply", job, i, rec.accepted_ns, rec.report_ns);
    }
  }
  spans.write_jsonl(options.work_dir + "/spans-" + options.workload + ".jsonl");

  // dist.overhead_ms: per study, the probe's distributed median minus its
  // in-process median for the same study and width.
  Daemon probe_daemon(options.bin_dir, options.work_dir);
  auto probe = run_dist_probe(probe_daemon, studies, table, options.seed,
                              result);
  probe_daemon.stop();
  double overhead = 0.0;
  int studies_compared = 0;
  std::vector<double> dist_all;
  for (std::size_t s = 0; s < std::size(kStudies); ++s) {
    const auto& cold = probe[{JobClass::kCold, s}];
    const auto& dist = probe[{JobClass::kDist, s}];
    dist_all.insert(dist_all.end(), dist.begin(), dist.end());
    if (cold.empty() || dist.empty()) continue;
    overhead += median(dist) - median(cold);
    ++studies_compared;
  }
  std::cout << "  dist probe: " << dist_all.size()
            << " jobs (workers=" << kDistWorkers << ", closed loop); latency "
            << "ms p50 " << quantile(dist_all, 0.5) << ", p90 "
            << quantile(dist_all, 0.9) << "\n";
  double written_jobs = 0;
  for (const PlannedJob& job : plan) {
    if (job.cls != JobClass::kWarm) ++written_jobs;
  }
  result.metrics = {
      {"serve.accept_us", median(accept_us[JobClass::kCold]), "us"},
      {"serve.queue_ms", median(queue_ms[JobClass::kCold]), "ms"},
      {"serve.run_ms", median(run_ms[JobClass::kCold]), "ms"},
      {"serve.cold_p50_ms", quantile(latency_ms[JobClass::kCold], 0.5), "ms"},
      {"serve.warm_p90_ms", quantile(latency_ms[JobClass::kWarm], 0.9), "ms"},
      {"serve.cache_hit_ratio", out.cache_hit_ratio, "ratio"},
      {"journal.bytes_per_job",
       static_cast<double>(out.journal_bytes) / std::max(1.0, written_jobs),
       "B/job"},
      {"wire.report_bytes", report_bytes / std::max(1.0, reports), "B"},
      {"dist.overhead_ms",
       studies_compared > 0 ? overhead / studies_compared : 0, "ms"},
      {"loadgen.lag_p99_ms", lag_p99, "ms"},
      {"trace.overhead_pct", 0.0, "%"},
  };
  return result;
}

}  // namespace perfbench
