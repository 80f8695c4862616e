#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

Study load_study(const std::string& data_dir, const std::string& name) {
  Study study;
  study.name = name;
  study.program = read_file(data_dir + "/" + name + ".c");
  study.spec = read_file(data_dir + "/" + name + ".esv");
  return study;
}

std::string rewrite_time_bounds(const std::string& spec, unsigned bound) {
  static const std::regex bounded(R"(F\[[0-9]+\])");
  return std::regex_replace(spec, bounded,
                            "F[" + std::to_string(bound) + "]");
}

const std::vector<CampaignKind>& campaign_kinds() {
  static const std::vector<CampaignKind> kinds = [] {
    std::vector<CampaignKind> out(3);
    out[0].name = "derived";
    out[0].studies = {"blinker", "sensor_debounce", "osek_scheduler",
                      "can_transport"};
    out[0].seeds_per_study = 4;
    out[1].name = "timebound";
    out[1].studies = {"sensor_debounce", "osek_scheduler", "can_transport"};
    out[1].compiled_mode = true;
    out[1].time_bound = 10000;
    // osek_scheduler and can_transport carry statement-granularity bounds
    // that are meant to fail at clock granularity, so approach 1 runs only
    // the two studies whose specs hold under it.
    out[2].name = "microprocessor";
    out[2].studies = {"blinker", "sensor_debounce"};
    out[2].approach = 1;
    return out;
  }();
  return kinds;
}

const CampaignKind& campaign_kind(const std::string& name) {
  for (const CampaignKind& kind : campaign_kinds()) {
    if (kind.name == name) return kind;
  }
  throw std::invalid_argument("unknown campaign kind " + name);
}

std::vector<Study> load_kind_studies(const CampaignKind& kind,
                                     const std::string& data_dir) {
  std::vector<Study> studies;
  for (const std::string& name : kind.studies) {
    Study study = load_study(data_dir, name);
    if (kind.time_bound != 0) {
      study.spec = rewrite_time_bounds(study.spec, kind.time_bound);
    }
    studies.push_back(std::move(study));
  }
  return studies;
}

esv::campaign::CampaignConfig make_config(const CampaignKind& kind,
                                          const Study& study,
                                          std::uint64_t lo, std::uint64_t hi,
                                          unsigned jobs) {
  esv::campaign::CampaignConfig config;
  config.program_source = study.program;
  config.spec_text = study.spec;
  config.approach = kind.approach;
  if (kind.compiled_mode) config.mode = esv::sctc::MonitorMode::kCompiled;
  config.seed_lo = lo;
  config.seed_hi = hi;
  config.jobs = jobs;
  return config;
}

// --- expected answers -------------------------------------------------------

namespace {
std::string entry_key(const std::string& kind, const std::string& study,
                      std::uint64_t seed) {
  return kind + "/" + study + "/" + std::to_string(seed);
}
}  // namespace

ExpectedTable ExpectedTable::load(const std::string& path) {
  std::istringstream in(read_file(path));
  ExpectedTable table;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind, study;
    std::uint64_t seed = 0;
    Expected expected;
    if (!(fields >> kind >> study >> seed >> expected.verdicts >>
          expected.steps >> expected.statements)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed expected answer");
    }
    table.put(kind, study, seed, std::move(expected));
  }
  return table;
}

const Expected* ExpectedTable::find(const std::string& kind,
                                    const std::string& study,
                                    std::uint64_t seed) const {
  const auto it = entries_.find(entry_key(kind, study, seed));
  return it == entries_.end() ? nullptr : &it->second;
}

void ExpectedTable::put(const std::string& kind, const std::string& study,
                        std::uint64_t seed, Expected expected) {
  entries_[entry_key(kind, study, seed)] = std::move(expected);
}

std::string ExpectedTable::render() const {
  // Key order is lexical; re-sort numerically by seed for a readable file.
  struct Row {
    std::string kind, study;
    std::uint64_t seed;
    const Expected* expected;
  };
  std::vector<Row> rows;
  for (const auto& [key, expected] : entries_) {
    const std::size_t a = key.find('/');
    const std::size_t b = key.find('/', a + 1);
    rows.push_back({key.substr(0, a), key.substr(a + 1, b - a - 1),
                    std::stoull(key.substr(b + 1)), &expected});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    if (x.kind != y.kind) return x.kind < y.kind;
    if (x.study != y.study) return x.study < y.study;
    return x.seed < y.seed;
  });
  std::ostringstream out;
  out << "# kind study seed verdicts steps statements\n";
  for (const Row& row : rows) {
    out << row.kind << '\t' << row.study << '\t' << row.seed << '\t'
        << row.expected->verdicts << '\t' << row.expected->steps << '\t'
        << row.expected->statements << '\n';
  }
  return out.str();
}

void ExpectedTable::corrupt() {
  for (auto& [key, expected] : entries_) {
    if (!expected.verdicts.empty()) {
      expected.verdicts[0] = expected.verdicts[0] == 'V' ? 'X' : 'V';
    }
  }
}

std::string verdict_letters(const esv::campaign::SeedResult& seed) {
  std::string letters;
  for (const esv::campaign::PropertyOutcome& outcome : seed.properties) {
    switch (outcome.verdict) {
      case esv::temporal::Verdict::kValidated: letters += 'V'; break;
      case esv::temporal::Verdict::kViolated: letters += 'X'; break;
      case esv::temporal::Verdict::kPending: letters += 'P'; break;
    }
  }
  return letters;
}

std::string check_seed(const ExpectedTable& table, const std::string& kind,
                       const std::string& study,
                       const esv::campaign::SeedResult& seed) {
  const std::string where =
      kind + "/" + study + " seed " + std::to_string(seed.seed) + ": ";
  if (!seed.error.empty()) return where + "error: " + seed.error;
  const Expected* expected = table.find(kind, study, seed.seed);
  if (expected == nullptr) return where + "no expected answer";
  const std::string got = verdict_letters(seed);
  if (got != expected->verdicts || seed.steps != expected->steps ||
      seed.statements != expected->statements) {
    return where + "got " + got + " " + std::to_string(seed.steps) + " " +
           std::to_string(seed.statements) + ", expected " +
           expected->verdicts + " " + std::to_string(expected->steps) + " " +
           std::to_string(expected->statements);
  }
  return "";
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- spans ----------------------------------------------------------------

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::int32_t SpanRecorder::open(const std::string& name, std::int32_t parent,
                                std::uint64_t group) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.group = group;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::int32_t SpanRecorder::add(const std::string& name, std::int32_t parent,
                               std::uint64_t group, std::int64_t start_ns,
                               std::int64_t end_ns) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.group = group;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::add_folded(const std::string& name, std::int32_t parent,
                              std::uint64_t group, std::uint64_t count,
                              std::int64_t total_ns) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.group = group;
  span.count = count;
  span.folded_ns = total_ns;
  if (parent != kNoParent) {
    span.start_ns = spans_[static_cast<std::size_t>(parent)].start_ns;
    span.end_ns = spans_[static_cast<std::size_t>(parent)].end_ns;
  }
  spans_.push_back(span);
}

std::vector<std::int64_t> SpanRecorder::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = duration_ns(spans_[i]);
  }
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      self[static_cast<std::size_t>(span.parent)] -= duration_ns(span);
    }
  }
  return self;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << names_[span.name]
        << "\",\"parent\":" << span.parent << ",\"group\":" << span.group
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns;
    if (span.count > 1 || span.folded_ns != 0) {
      out << ",\"count\":" << span.count << ",\"sum_ns\":" << span.folded_ns;
    }
    out << "}\n";
  }
}

// --- result line ----------------------------------------------------------

void RunResult::fail(const std::string& what) {
  correct = false;
  if (failures.size() < 5) failures.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"seeds_per_s", "seeds/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"p50_ms", "ms"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"minic.compile_ms", "ms"},
      {"esw.lower_ms", "ms"},
      {"cpu.codegen_ms", "ms"},
      {"spec.parse_ms", "ms"},
      {"campaign.prepare_ms", "ms"},
      {"spec.apply_us", "us"},
      {"temporal.ar_states", "count"},
      {"sctc.step_ns", "ns"},
      {"sctc.steps", "count/seed"},
      {"esw.stmt_ns", "ns"},
      {"sim.kernel_ns", "ns"},
      {"sim.delta_cycles", "count/step"},
      {"sim.process_runs", "count/step"},
      {"cpu.cycle_ns", "ns"},
      {"campaign.seed_glue_us", "us"},
      {"campaign.report_ms", "ms"},
      {"serve.accept_us", "us"},
      {"serve.queue_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.cold_p50_ms", "ms"},
      {"serve.warm_p90_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"journal.bytes_per_job", "B/job"},
      {"wire.report_bytes", "B"},
      {"dist.overhead_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

namespace {
std::string number_text(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}
}  // namespace

void print_result(const std::string& workload, bool traced,
                  const RunResult& result) {
  const auto& names = traced ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : result.metrics) by_name[metric.name] = &metric;

  std::cout << "perfbench " << workload << (traced ? " (traced)" : "")
            << ": attempted=" << result.attempted
            << " failed=" << result.failed << " failed_ratio="
            << (result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted))
            << " correct=" << (result.correct ? "true" : "false") << "\n";
  for (const std::string& failure : result.failures) {
    std::cout << "  FAIL " << failure << "\n";
  }
  for (const auto& [name, unit] : names) {
    const auto it = by_name.find(name);
    std::cout << "  " << std::left << std::setw(24) << name;
    if (it == by_name.end()) {
      std::cout << "n/a\n";
    } else {
      std::cout << std::setprecision(6) << it->second->value << " " << unit
                << "\n";
    }
  }

  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = by_name.find(name);
    if (!first) line += ",";
    first = false;
    line += "\"" + name + "\":{\"value\":" +
            number_text(it == by_name.end() ? 0.0 : it->second->value) +
            ",\"unit\":\"" + unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace perfbench
