// perfbench — the repository benchmark binary (see perfbench/README.md).
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--data DIR] [--expected FILE] [--bin-dir DIR]
//                 [--work-dir DIR] [--corrupt-expected]
//   perfbench establish [--data DIR] [--expected FILE]
//
// `run` prints a human-readable table and, as its last line, one JSON
// object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. It exits
// 0 only when every output matched its expected answer.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 [--data DIR] [--expected FILE] [--bin-dir DIR] "
               "[--work-dir DIR] [--corrupt-expected]\n"
               "       perfbench establish [--data DIR] [--expected FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  perfbench::RunOptions options;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() == "1";
      else if (arg == "--data") options.data_dir = value();
      else if (arg == "--expected") options.expected_path = value();
      else if (arg == "--bin-dir") options.bin_dir = value();
      else if (arg == "--work-dir") options.work_dir = value();
      else if (arg == "--corrupt-expected") options.corrupt_expected = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return usage();
  }

  try {
    if (command == "establish") {
      return perfbench::establish_expected(options.data_dir,
                                           options.expected_path);
    }
    if (command != "run" || options.workload.empty() ||
        options.work_dir.empty() || options.seconds <= 0) {
      return usage();
    }
    const perfbench::RunResult result =
        options.workload == "service"
            ? perfbench::run_service_workload(options)
            : perfbench::run_campaign_workload(options);
    perfbench::print_result(options.workload, options.trace, result);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
