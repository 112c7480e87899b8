#pragma once
/// \file bench.hpp
/// Shared pieces of the perfbench program: run options, the result record
/// every workload fills, order statistics over raw samples, and the host
/// facts each result is stamped with.
///
/// Every workload builds its inputs from the run seed alone, measures for
/// the requested number of seconds, checks its outputs, and reports either
/// its end-to-end metrics (untraced run) or its per-layer metrics (traced
/// run).  See perfbench/README.md for what each metric means on each
/// workload.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured phase length
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the checked operations, the metrics, and the
/// context that makes the numbers reproducible.
class RunResult {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a context entry; `json_value` must already be valid JSON.
  void context(const std::string& key, const std::string& json_value) {
    context_.emplace_back(key, json_value);
  }
  void context(const std::string& key, double value);

  /// One checked operation passed or failed; a failure is logged to stderr.
  void check(bool ok, const std::string& what);
  /// `attempted` checked operations of which `failed` failed.
  void tally(std::int64_t attempted, std::int64_t failed, const std::string& what);

  /// Prints the context line, then the result line (always the last line).
  void print() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

// --- order statistics over raw samples (never bucketed) -------------------

/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile up to p99 that still has at least ten samples
/// beyond it, so a tail is never read off a handful of values.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 99.0; 0 when fewer than 11 samples
  std::size_t samples = 0;
};
[[nodiscard]] Tail supported_tail(std::vector<double> v);

/// True when both vectors hold the same bits.
[[nodiscard]] bool bitwise_equal(std::span<const double> a, std::span<const double> b);

// --- host facts ------------------------------------------------------------

/// VmHWM of this process in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();
/// Last-level cache size in bytes (sysfs), 0 when unknown.
[[nodiscard]] std::size_t llc_bytes();
/// Wall seconds since an arbitrary fixed point (steady clock).
[[nodiscard]] double now_seconds();
/// Decorrelated sub-seed of the run seed for one input stream.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Forcing f(x, y, z) = uniform(-1, 1) hashed from the node coordinates and
/// the seed: any partition samples the same field.
[[nodiscard]] double hashed_forcing(std::uint64_t seed, double x, double y, double z);

/// Sustained memory bandwidth (STREAM triad a = b + s c, GB/s) over arrays
/// of `bytes_per_array` each, on `threads` threads; median of `reps`.
[[nodiscard]] double triad_gbs(std::size_t bytes_per_array, int threads, int reps);

// --- workloads -------------------------------------------------------------

void run_nekbone(const RunOptions& options, RunResult& result);
void run_bk5(const RunOptions& options, RunResult& result);
void run_service(const RunOptions& options, RunResult& result);

}  // namespace perfbench
