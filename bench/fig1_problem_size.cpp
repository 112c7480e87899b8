/// Reproduces Fig 1 (a-h): observed GFLOP/s versus problem size
/// (#elements) for each polynomial degree N in {1,3,...,15}, for the
/// FPGA-simulated SEM accelerator, the three CPUs and the five GPUs.
///
/// The FPGA series comes from the calibrated simulator (with invocation
/// overhead, which produces the small-size droop); the CPU/GPU series from
/// the calibrated platform models.  Pass --host to append a series
/// actually measured on this machine's CPU (ax_fixed kernel).
/// Usage: fig1_problem_size [--csv] [--host] [--degrees 7,11] ...

#include <cmath>
#include <iostream>
#include <sstream>
#include <vector>

#include "arch/platform_model.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fpga/accelerator.hpp"
#include "kernels/ax.hpp"
#include "sem/geometry.hpp"
#include "obs/obs.hpp"

using namespace semfpga;

namespace {

/// Measures the host CPU on a synthetic workload of `n_elements`.
double measure_host_gflops(int degree, std::size_t n_elements) {
  const sem::ReferenceElement ref(degree);
  const std::size_t ppe = ref.points_per_element();
  const std::size_t n = n_elements * ppe;
  // Synthetic operands: the kernel's arithmetic does not depend on mesh
  // validity, so fill with random data sized like the real factors.
  aligned_vector<double> u(n), w(n), g(n_elements * sem::geom_block_size(ppe));
  SplitMix64 rng(42);
  for (double& v : u) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (double& v : g) {
    v = rng.uniform(0.1, 1.0);
  }
  kernels::AxArgs args;
  args.u = u;
  args.w = w;
  args.g = g;
  args.dx = std::span<const double>(ref.deriv().d.data(), ref.deriv().d.size());
  args.dxt = std::span<const double>(ref.deriv().dt.data(), ref.deriv().dt.size());
  args.n1d = ref.n1d();
  args.n_elements = n_elements;

  kernels::ax_fixed(args);  // warm-up
  int reps = 0;
  Timer timer;
  do {
    kernels::ax_fixed(args);
    ++reps;
  } while (timer.seconds() < 0.05 && reps < 1000);
  const double secs = timer.seconds() / reps;
  return static_cast<double>(kernels::ax_flops(args.n1d, n_elements)) / secs / 1e9;
}

std::vector<int> parse_degrees(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(std::stoi(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, std::vector<FlagSpec>{
      {"degrees", FlagSpec::Kind::kString, "1,3,5,7,9,11,13,15",
       "comma-separated degree list"},
      {"host", FlagSpec::Kind::kBool, "", "include the measured host rate"},
      {"csv", FlagSpec::Kind::kBool, "", "emit CSV instead of a table"},
      {"obs", FlagSpec::Kind::kString, "off", obs::kCliHelp},
  });
  if (const auto ec = cli.early_exit("fig1_problem_size",
                                     "Paper Fig. 1: throughput vs polynomial degree.")) {
    return *ec;
  }
  if (!obs::configure_from_flag(cli.get("obs", "off"), "fig1_problem_size")) {
    return 2;
  }
  const bool host = cli.has("host");
  const std::vector<int> degrees =
      parse_degrees(cli.get("degrees", "1,3,5,7,9,11,13,15"));
  const std::vector<std::size_t> sizes = {8, 16, 32, 64, 128, 256, 512,
                                          1024, 2048, 4096, 8192, 16384};

  for (int degree : degrees) {
    Table table("Fig 1 — GFLOP/s vs problem size, N = " + std::to_string(degree));
    std::vector<std::string> header = {"#elements", "SEM-Acc(FPGA)", "Xeon 6130",
                                       "i9-10920X", "ThunderX2", "K80", "P100",
                                       "RTX2060S", "V100", "A100"};
    if (host) {
      header.push_back("host-CPU(measured)");
    }
    table.set_header(header);

    const fpga::SemAccelerator acc(fpga::stratix10_gx2800(),
                                   fpga::KernelConfig::banked(degree));
    for (std::size_t n : sizes) {
      std::vector<std::string> row = {Table::fmt_int(static_cast<long long>(n))};
      row.push_back(Table::fmt(acc.estimate(n).gflops, 2));
      for (const char* name :
           {"Intel Xeon Gold 6130", "Intel i9-10920X", "Marvell ThunderX2",
            "NVIDIA Tesla K80", "NVIDIA Tesla P100 SXM2", "NVIDIA RTX 2060 Super",
            "NVIDIA Tesla V100 PCIe", "NVIDIA A100 PCIe"}) {
        row.push_back(Table::fmt(arch::platform_by_name(name).gflops(degree, n), 2));
      }
      if (host) {
        row.push_back(Table::fmt(measure_host_gflops(degree, n), 2));
      }
      table.add_row(row);
    }
    if (cli.has("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print_text(std::cout);
    }
    std::cout << '\n';
  }
  return obs::finalize();
}
