/// perfbench: the repository benchmark program.
///
/// Usage: perfbench --workload nekbone-n7|bk5-n3-ranks4|service-open
///                  --seed N --seconds S --trace 0|1 [--source-id ID]
///
/// Prints one context line and, as the last line, one JSON object with the
/// keys correct, attempted, failed and metrics.  Exits non-zero without a
/// result line on a usage error or when a workload throws.

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload nekbone-n7|bk5-n3-ranks4|service-open"
               " --seed N --seconds S --trace 0|1 [--source-id ID]\n";
  return 2;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string source_id = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--source-id") {
        source_id = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  if (argc % 2 == 0 || !have_workload || options.seconds <= 0.0) {
    return usage("missing or malformed flags");
  }

  using Runner = void (*)(const perfbench::RunOptions&, perfbench::RunResult&);
  Runner runner = nullptr;
  if (options.workload == "nekbone-n7") {
    runner = perfbench::run_nekbone;
  } else if (options.workload == "bk5-n3-ranks4") {
    runner = perfbench::run_bk5;
  } else if (options.workload == "service-open") {
    runner = perfbench::run_service;
  } else {
    return usage(("unknown workload " + options.workload).c_str());
  }

  perfbench::RunResult result;
  result.context("workload", quoted(options.workload));
  result.context("seed", std::to_string(options.seed));
  result.context("seconds", options.seconds);
  result.context("trace", options.trace ? "true" : "false");
  result.context("source_id", quoted(source_id));
  result.context("compiler", quoted(PERFBENCH_COMPILER));
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int nproc =
      sched_getaffinity(0, sizeof affinity, &affinity) == 0 ? CPU_COUNT(&affinity) : 0;
  result.context("nproc", nproc);
  result.context("hardware_concurrency",
                 static_cast<double>(std::thread::hardware_concurrency()));
  try {
    perfbench::register_traced_backends();
    runner(options, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  result.print();
  return 0;
}
