// Shared pieces of the perfbench binary: study inputs, the checked-in
// expected answers, statistics, the span recorder and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds on the steady clock since the process-wide origin.
std::int64_t now_ns();

/// One example study: program text plus spec text.
struct Study {
  std::string name;
  std::string program;
  std::string spec;
};

/// Reads `<data_dir>/<name>.c` and `<data_dir>/<name>.esv`. Throws on a
/// missing file.
Study load_study(const std::string& data_dir, const std::string& name);

/// The timebound generator: every `F[n]` becomes `F[bound]`.
std::string rewrite_time_bounds(const std::string& spec, unsigned bound);

/// The three campaign input sets. Each names its studies, the approach and
/// the monitor mode (nullopt: leave CampaignConfig's default in place).
struct CampaignKind {
  std::string name;  // "derived", "timebound", "microprocessor"
  std::vector<std::string> studies;
  int approach = 2;
  bool compiled_mode = false;  // false: the CampaignConfig default
  unsigned time_bound = 0;     // non-zero: rewrite F[n] to F[time_bound]
  std::uint64_t seeds_per_study = 2;  // campaign size of one round
};
const CampaignKind& campaign_kind(const std::string& name);
const std::vector<CampaignKind>& campaign_kinds();

/// Loads a kind's studies, with the kind's spec rewrite applied.
std::vector<Study> load_kind_studies(const CampaignKind& kind,
                                     const std::string& data_dir);

/// A CampaignConfig for one study of a kind over [lo, hi].
esv::campaign::CampaignConfig make_config(const CampaignKind& kind,
                                          const Study& study,
                                          std::uint64_t lo, std::uint64_t hi,
                                          unsigned jobs);

// --- expected answers (expected.tsv) ---------------------------------------

/// Seeds 1..kSeedPool of every study have a checked-in expected answer;
/// workloads draw their campaign seeds from this pool.
constexpr std::uint64_t kSeedPool = 256;

/// Expected outcome of one seed: verdict letters (V validated, X violated,
/// P pending, one per property in spec order), checker steps and executed
/// statements (approach 2) or clock cycles (approach 1).
struct Expected {
  std::string verdicts;
  std::uint64_t steps = 0;
  std::uint64_t statements = 0;
};

class ExpectedTable {
 public:
  /// Parses expected.tsv. Throws on a malformed file.
  static ExpectedTable load(const std::string& path);
  const Expected* find(const std::string& kind, const std::string& study,
                       std::uint64_t seed) const;
  void put(const std::string& kind, const std::string& study,
           std::uint64_t seed, Expected expected);
  std::string render() const;
  /// Test hook for the self-test: flips the first verdict letter of every
  /// entry, so any checked run must fail.
  void corrupt();

 private:
  std::map<std::string, Expected> entries_;  // "kind/study/seed"
};

std::string verdict_letters(const esv::campaign::SeedResult& seed);

/// Compares one seed against its expected answer; returns an empty string
/// on a match, else a one-line description of the mismatch.
std::string check_seed(const ExpectedTable& table, const std::string& kind,
                       const std::string& study,
                       const esv::campaign::SeedResult& seed);

// --- statistics --------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of a copy of `values`.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Mean of the values between the first and third quartile: the throughput
/// figures use it so that host noise in a minority of rounds or jobs does
/// not move them.
double interquartile_mean(std::vector<double> values);
/// Peak resident set of this process in MiB.
double self_peak_rss_mb();

// --- spans ----------------------------------------------------------------

/// In-memory span recorder. A span carries a name, start, end, parent span
/// and the id of the seed or job it belongs to; a folded span stands for
/// `count` calls whose durations are summed (the per-step checker spans,
/// which would otherwise number in the millions). Written out only by
/// write_jsonl, after the measured part of a run.
class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = kNoParent;
    std::uint64_t group = 0;  // seed or job id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 1;
    std::int64_t folded_ns = 0;  // count > 1: summed duration
  };

  /// Opens a span; returns its index.
  std::int32_t open(const std::string& name, std::int32_t parent,
                    std::uint64_t group);
  void close(std::int32_t span);
  /// Records a closed span with explicit timestamps.
  std::int32_t add(const std::string& name, std::int32_t parent,
                   std::uint64_t group, std::int64_t start_ns,
                   std::int64_t end_ns);
  /// Records `count` calls totalling `total_ns` under `parent`.
  void add_folded(const std::string& name, std::int32_t parent,
                  std::uint64_t group, std::uint64_t count,
                  std::int64_t total_ns);

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::int64_t duration_ns(const Span& span) const {
    return span.count > 1 || span.folded_ns != 0 ? span.folded_ns
                                                 : span.end_ns - span.start_ns;
  }
  /// Self time of every span: its duration minus its children's.
  std::vector<std::int64_t> self_times() const;
  void write_jsonl(const std::string& path) const;

 private:
  std::uint32_t intern(const std::string& name);
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

// --- result line ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // first few mismatch descriptions
  void fail(const std::string& what);
};

/// The names and units of every metric a run prints, in BENCHMARK.json
/// order: end-to-end metrics for untraced runs, per-layer ones for traced.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Prints the human-readable table and, as the last line, the JSON result.
/// Metrics missing from `result` (layers the workload does not cross) are
/// printed as 0 and marked n/a in the table.
void print_result(const std::string& workload, bool traced,
                  const RunResult& result);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "examples/data";
  std::string expected_path = "perfbench/expected.tsv";
  std::string bin_dir;     // directory holding esv-serve and esv-worker
  std::string work_dir;    // scratch directory for sockets, journals, traces
  bool corrupt_expected = false;
};

RunResult run_campaign_workload(const RunOptions& options);
RunResult run_service_workload(const RunOptions& options);
int establish_expected(const std::string& data_dir, const std::string& out);

}  // namespace perfbench
