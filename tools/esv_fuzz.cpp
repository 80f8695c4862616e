// esv-fuzz: the standing differential soak.
//
// Generates seeded property-annotated mini-C programs (src/gen) and runs
// every one through the full differential matrix — approach 1 vs approach 2
// crossed with every monitor mode. Any cross-backend disagreement is a
// toolchain bug: the offender is delta-shrunk to a minimal reproducer and
// written to --repro-dir, keyed by seed + generator-config digest, so the
// exact failure regenerates from two numbers.
//
//   esv-fuzz --seeds=1000                     # seeds 0..999
//   esv-fuzz --seeds=500..600 --jobs=8
//   esv-fuzz --seeds=50 --repro-dir=repros
//   esv-fuzz --reproduce=repros/seed7-gencfg-...   # re-derive, byte-compare
//
// Exit codes: 0 all seeds agree (or a --reproduce matched byte-for-byte),
// 1 disagreements found (or a --reproduce drifted), 2 usage error,
// 3 internal error.
//
// --corrupt-seed=K is a test hook: it plants a compiled-monitor corruption
// for seed K, so the detect → shrink → reproduce pipeline can be exercised
// end to end (docs/FUZZING.md).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "gen/differential.hpp"
#include "gen/generator.hpp"
#include "gen/shrink.hpp"

namespace {

struct Options {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 99;  // inclusive
  int jobs = 1;
  std::string repro_dir;
  std::string reproduce_dir;
  std::int64_t corrupt_seed = -1;  // plant a corruption for this seed
  int corrupt_property = 0;        // which property the hook corrupts
  bool run_approach1 = true;
  bool quiet = false;
};

struct Failure {
  std::uint64_t seed = 0;
  std::vector<std::string> disagreements;
  std::string error;  // generation itself failed (internal error)
};

int usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "esv-fuzz: " << error << "\n\n";
  std::cerr <<
      "usage: esv-fuzz [options]\n"
      "  --seeds=N | --seeds=LO..HI   seed range (default 100: seeds 0..99)\n"
      "  --jobs=N                     worker threads (default 1; results are\n"
      "                               independent of N)\n"
      "  --repro-dir=DIR              shrink failures and write reproducers\n"
      "  --reproduce=DIR              re-derive a reproducer from its\n"
      "                               repro.json and byte-compare program.c\n"
      "  --corrupt-seed=K             test hook: plant a compiled-monitor\n"
      "                               corruption for seed K\n"
      "  --corrupt-property=I         property index the hook corrupts (0)\n"
      "  --no-approach1               approach-2 cells only (faster)\n"
      "  --quiet                      summary line only\n";
  return error.empty() ? 0 : 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

bool parse_seed_range(const std::string& text, Options& options) {
  const std::size_t dots = text.find("..");
  if (dots == std::string::npos) {
    std::uint64_t count = 0;
    if (!parse_u64(text, count) || count == 0) return false;
    options.seed_lo = 0;
    options.seed_hi = count - 1;
    return true;
  }
  return parse_u64(text.substr(0, dots), options.seed_lo) &&
         parse_u64(text.substr(dots + 2), options.seed_hi) &&
         options.seed_hi >= options.seed_lo;
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

esv::gen::DifferentialOptions differential_options(const Options& options,
                                                   std::uint64_t seed) {
  esv::gen::DifferentialOptions diff;
  diff.run_approach1 = options.run_approach1;
  if (options.corrupt_seed >= 0 &&
      seed == static_cast<std::uint64_t>(options.corrupt_seed)) {
    diff.corrupt_property = options.corrupt_property;
  }
  return diff;
}

/// Shrinks one failing seed and writes its reproducer directory. Returns the
/// directory path.
std::filesystem::path write_repro(const Options& options,
                                  const esv::gen::GeneratedProgram& program,
                                  const Failure& failure) {
  const esv::gen::DifferentialOptions diff =
      differential_options(options, failure.seed);
  esv::gen::ShrinkOptions shrink_options;
  shrink_options.differential = diff;
  const esv::gen::ShrinkResult shrunk = esv::gen::shrink(program,
                                                         shrink_options);

  const std::filesystem::path dir =
      std::filesystem::path(options.repro_dir) /
      ("seed" + std::to_string(failure.seed) + "-" + program.config_digest);
  std::filesystem::create_directories(dir);

  write_file(dir / "original.c", program.source);
  write_file(dir / "program.c", shrunk.program.source);
  write_file(dir / "props.esv", shrunk.program.spec_text());
  if (!shrunk.program.fault_plan.empty()) {
    write_file(dir / "faults.flt", shrunk.program.fault_plan);
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"seed\": " << failure.seed << ",\n"
       << "  \"config\": \"" << program.config_digest << "\",\n"
       << "  \"corrupt_property\": "
       << (diff.corrupt_property >= 0 ? diff.corrupt_property : -1) << ",\n"
       << "  \"approach1\": " << (diff.run_approach1 ? "true" : "false")
       << ",\n"
       << "  \"original_lines\": " << line_count(program.source) << ",\n"
       << "  \"shrunk_lines\": " << line_count(shrunk.program.source) << ",\n"
       << "  \"shrink_attempts\": " << shrunk.attempts << ",\n"
       << "  \"disagreements\": [\n";
  for (std::size_t i = 0; i < shrunk.disagreements.size(); ++i) {
    json << "    " << esv::common::json_string(shrunk.disagreements[i])
         << (i + 1 < shrunk.disagreements.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  write_file(dir / "repro.json", json.str());
  return dir;
}

int reproduce(const Options& options) {
  const std::filesystem::path dir(options.reproduce_dir);
  std::uint64_t seed = 0;
  std::string config_text;
  esv::gen::DifferentialOptions diff;
  try {
    const esv::common::Json json =
        esv::common::Json::parse(read_file(dir / "repro.json"));
    seed = json.at("seed").as_u64();
    config_text = json.at("config").as_string();
    diff.run_approach1 = json.bool_or("approach1", true);
    // write_repro records -1 when no corruption was planted.
    const double corrupt = json.double_or("corrupt_property", -1);
    if (corrupt >= 0) diff.corrupt_property = static_cast<int>(corrupt);
  } catch (const esv::common::DecodeError& e) {
    std::cerr << "esv-fuzz: " << (dir / "repro.json").string() << ": "
              << e.what() << "\n";
    return 2;
  }

  const esv::gen::Generator generator;
  if (generator.config().digest() != config_text) {
    std::cerr << "esv-fuzz: reproducer was recorded under config "
              << config_text << " but the current generator is "
              << generator.config().digest()
              << "; the generated program would differ\n";
    return 2;
  }

  const esv::gen::GeneratedProgram program = generator.generate(seed);
  if (!esv::gen::still_fails(program, diff)) {
    std::cout << "esv-fuzz: seed " << seed
              << " no longer fails the differential matrix (fixed?)\n";
    return 1;
  }
  esv::gen::ShrinkOptions shrink_options;
  shrink_options.differential = diff;
  const esv::gen::ShrinkResult shrunk =
      esv::gen::shrink(program, shrink_options);

  const std::string recorded = read_file(dir / "program.c");
  if (shrunk.program.source != recorded) {
    std::cout << "esv-fuzz: reproducer DRIFTED for seed " << seed
              << ": re-shrunk program.c differs from the recorded one\n";
    return 1;
  }
  std::cout << "esv-fuzz: seed " << seed << " reproduced byte-identically ("
            << line_count(shrunk.program.source) << " lines, "
            << shrunk.disagreements.size() << " disagreement(s))\n";
  for (const std::string& d : shrunk.disagreements) {
    std::cout << "  " << d << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") return usage();
    if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_seed_range(value("--seeds="), options)) {
        return usage("bad --seeds value '" + value("--seeds=") + "'");
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = std::max(1, std::atoi(value("--jobs=").c_str()));
    } else if (arg.rfind("--repro-dir=", 0) == 0) {
      options.repro_dir = value("--repro-dir=");
    } else if (arg.rfind("--reproduce=", 0) == 0) {
      options.reproduce_dir = value("--reproduce=");
    } else if (arg.rfind("--corrupt-seed=", 0) == 0) {
      options.corrupt_seed = std::atoll(value("--corrupt-seed=").c_str());
    } else if (arg.rfind("--corrupt-property=", 0) == 0) {
      options.corrupt_property =
          std::atoi(value("--corrupt-property=").c_str());
    } else if (arg == "--no-approach1") {
      options.run_approach1 = false;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      return usage("unknown option '" + arg + "'");
    }
  }

  try {
    if (!options.reproduce_dir.empty()) return reproduce(options);

    const esv::gen::Generator generator;
    const std::uint64_t total = options.seed_hi - options.seed_lo + 1;

    std::atomic<std::uint64_t> next{options.seed_lo};
    std::atomic<std::uint64_t> properties_checked{0};
    std::mutex failures_mutex;
    std::vector<Failure> failures;

    const auto worker = [&] {
      for (;;) {
        const std::uint64_t seed = next.fetch_add(1);
        if (seed > options.seed_hi) return;
        Failure failure;
        failure.seed = seed;
        try {
          const esv::gen::GeneratedProgram program = generator.generate(seed);
          properties_checked += program.properties.size();
          const esv::gen::DifferentialResult result =
              esv::gen::run_differential(
                  program, differential_options(options, seed));
          if (result.agreed()) continue;
          failure.disagreements = result.disagreements;
        } catch (const std::exception& e) {
          failure.error = e.what();
        }
        const std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(std::move(failure));
      }
    };

    const int jobs = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(options.jobs),
                                total));
    std::vector<std::thread> threads;
    for (int i = 1; i < jobs; ++i) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();

    // Deterministic output and shrink order, independent of --jobs.
    std::sort(failures.begin(), failures.end(),
              [](const Failure& a, const Failure& b) { return a.seed < b.seed; });

    int internal_errors = 0;
    for (const Failure& failure : failures) {
      if (!failure.error.empty()) {
        ++internal_errors;
        std::cerr << "esv-fuzz: seed " << failure.seed
                  << ": internal error: " << failure.error << "\n";
        continue;
      }
      std::cout << "esv-fuzz: seed " << failure.seed << " DISAGREES ("
                << failure.disagreements.size() << " issue(s))\n";
      if (!options.quiet) {
        for (const std::string& d : failure.disagreements) {
          std::cout << "  " << d << "\n";
        }
      }
      if (!options.repro_dir.empty()) {
        const esv::gen::GeneratedProgram program =
            generator.generate(failure.seed);
        const std::filesystem::path dir =
            write_repro(options, program, failure);
        std::cout << "  reproducer: " << dir.string() << "\n";
      }
    }

    const std::size_t disagreed = failures.size() -
                                  static_cast<std::size_t>(internal_errors);
    std::cout << "esv-fuzz: " << total << " seed(s) ["
              << options.seed_lo << ".." << options.seed_hi << "], "
              << properties_checked.load() << " properties, config "
              << generator.config().digest() << ": " << disagreed
              << " disagreement(s), " << internal_errors << " error(s)\n";
    if (internal_errors != 0) return 3;
    return disagreed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "esv-fuzz: " << e.what() << "\n";
    return 3;
  }
}
