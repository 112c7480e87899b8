#include "layers.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "model/kernel_cost.hpp"
#include "runtime/rank_system.hpp"

namespace perfbench {
namespace {

namespace be = semfpga::backend;

std::mutex g_ledger_mutex;
std::vector<LayerCounters> g_ledger;  // guarded by g_ledger_mutex

class TracedBackend final : public be::Backend {
 public:
  TracedBackend(std::unique_ptr<be::Backend> inner, int halo_messages,
                std::int64_t halo_doubles)
      : inner_(std::move(inner)) {
    counters_.rank = inner_->rank();
    counters_.halo_messages = halo_messages;
    counters_.halo_doubles = halo_doubles;
  }
  TracedBackend(const TracedBackend&) = delete;
  TracedBackend& operator=(const TracedBackend&) = delete;
  ~TracedBackend() override {
    if (const be::FpgaTimeline* t = inner_->timeline()) {
      counters_.timeline = *t;
    }
    const std::lock_guard<std::mutex> lock(g_ledger_mutex);
    g_ledger.push_back(counters_);
  }

  [[nodiscard]] const char* name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::size_t n_local() const noexcept override { return inner_->n_local(); }
  [[nodiscard]] int threads() const noexcept override { return inner_->threads(); }
  [[nodiscard]] bool collective() const noexcept override { return inner_->collective(); }
  [[nodiscard]] int rank() const noexcept override { return inner_->rank(); }
  [[nodiscard]] const semfpga::aligned_vector<double>& jacobi_diagonal() const override {
    return inner_->jacobi_diagonal();
  }
  [[nodiscard]] const semfpga::aligned_vector<double>& inv_multiplicity() const override {
    return inner_->inv_multiplicity();
  }
  [[nodiscard]] const semfpga::aligned_vector<double>& mask() const override {
    return inner_->mask();
  }

  void apply(std::span<const double> u, std::span<double> w) override {
    count_apply();
    const double t0 = now_seconds();
    inner_->apply(u, w);
    counters_.apply_s += now_seconds() - t0;
  }
  void apply_unmasked(std::span<const double> u, std::span<double> w) override {
    count_apply();
    const double t0 = now_seconds();
    inner_->apply_unmasked(u, w);
    counters_.apply_s += now_seconds() - t0;
  }
  void qqt(std::span<double> local) override { inner_->qqt(local); }
  void apply_mask(std::span<double> w) override { inner_->apply_mask(w); }

  double reduce(be::PassCost cost, be::ReduceBody body) override {
    ++counters_.reduce_calls;
    counters_.vector_bytes += cost.bytes(inner_->n_local());
    const double t0 = now_seconds();
    const double sum = inner_->reduce(cost, body);
    counters_.reduce_s += now_seconds() - t0;
    return sum;
  }
  void vector_pass(be::PassCost cost, be::PassBody body) override {
    ++counters_.pass_calls;
    counters_.vector_bytes += cost.bytes(inner_->n_local());
    const double t0 = now_seconds();
    inner_->vector_pass(cost, body);
    counters_.pass_s += now_seconds() - t0;
  }

  void solve_begin() override { inner_->solve_begin(); }
  void solve_end() override { inner_->solve_end(); }
  [[nodiscard]] std::int64_t operator_flops() const override {
    return inner_->operator_flops();
  }
  [[nodiscard]] std::int64_t global_dofs() const override { return inner_->global_dofs(); }
  [[nodiscard]] std::size_t n_global() const override { return inner_->n_global(); }
  void gather(std::span<const double> global, std::span<double> local) const override {
    inner_->gather(global, local);
  }
  [[nodiscard]] const be::FpgaTimeline* timeline() const noexcept override {
    return inner_->timeline();
  }
  [[nodiscard]] be::FpgaTimeline* mutable_timeline() noexcept override {
    return inner_->mutable_timeline();
  }

 private:
  void count_apply() {
    ++counters_.apply_calls;
    if (counters_.apply_calls == 2) {
      steady_reduce_mark_ = counters_.reduce_calls;
      steady_pass_mark_ = counters_.pass_calls;
    }
    if (counters_.apply_calls >= 2) {
      counters_.steady_iterations = counters_.apply_calls - 2;
      counters_.steady_reduces = counters_.reduce_calls - steady_reduce_mark_;
      counters_.steady_passes = counters_.pass_calls - steady_pass_mark_;
    }
  }

  std::unique_ptr<be::Backend> inner_;
  LayerCounters counters_;
  std::int64_t steady_reduce_mark_ = 0;
  std::int64_t steady_pass_mark_ = 0;
};

/// Sums `field` per rank over the solves' entries, then returns the
/// extreme over ranks, per solve.
template <class Field>
double per_solve_extreme(const std::vector<LayerCounters>& entries, int solves,
                         Field field, bool want_max) {
  std::vector<double> per_rank;
  for (const LayerCounters& c : entries) {
    const auto r = static_cast<std::size_t>(c.rank);
    if (per_rank.size() <= r) {
      per_rank.resize(r + 1, 0.0);
    }
    per_rank[r] += field(c);
  }
  if (per_rank.empty()) {
    return 0.0;
  }
  const double extreme = want_max ? *std::max_element(per_rank.begin(), per_rank.end())
                                  : *std::min_element(per_rank.begin(), per_rank.end());
  return extreme / solves;
}

}  // namespace

void register_traced_backends() {
  for (const std::string inner : {"cpu", "fpga-sim"}) {
    const std::string name = "traced-" + inner;
    be::register_backend(name, [inner](const semfpga::solver::PoissonSystem& system,
                                       const be::MakeOptions& options) {
      return std::make_unique<TracedBackend>(be::make(inner, system, options), 0, 0);
    });
    be::register_rank_backend(name, [inner](semfpga::runtime::RankSystem& rs,
                                            const be::MakeOptions& options) {
      std::int64_t doubles = 0;
      for (const std::int64_t d : rs.halo().message_doubles()) {
        doubles += d;
      }
      return std::make_unique<TracedBackend>(
          be::make_rank(inner, rs, options),
          static_cast<int>(rs.halo().neighbor_ranks().size()), doubles);
    });
  }
}

std::vector<LayerCounters> take_layer_counters() {
  const std::lock_guard<std::mutex> lock(g_ledger_mutex);
  return std::exchange(g_ledger, {});
}

SolveLayers fold_counters(const std::vector<LayerCounters>& entries, int solves,
                          bool collective) {
  SolveLayers s;
  if (entries.empty() || solves < 1) {
    return s;
  }
  const auto apply = [](const LayerCounters& c) { return c.apply_s; };
  const auto reduce = [](const LayerCounters& c) { return c.reduce_s; };
  const auto pass = [](const LayerCounters& c) { return c.pass_s; };
  s.apply_s = per_solve_extreme(entries, solves, apply, true);
  s.reduce_s = per_solve_extreme(entries, solves, reduce, true);
  s.pass_s = per_solve_extreme(entries, solves, pass, true);
  s.rank_apply_max = s.apply_s;
  s.rank_apply_min = per_solve_extreme(entries, solves, apply, false);
  s.rank_reduce_max = s.reduce_s;
  s.rank_reduce_min = per_solve_extreme(entries, solves, reduce, false);

  const LayerCounters& first = entries.front();
  s.apply_calls = static_cast<double>(first.apply_calls);
  if (first.steady_iterations > 0) {
    const auto iters = static_cast<double>(first.steady_iterations);
    s.reduce_calls_per_iter = static_cast<double>(first.steady_reduces) / iters;
    s.pass_calls_per_iter = static_cast<double>(first.steady_passes) / iters;
  }

  double bytes = 0.0;
  double halo_msgs = 0.0;
  double halo_bytes = 0.0;
  for (const LayerCounters& c : entries) {
    bytes += c.vector_bytes;
    halo_msgs += c.halo_messages;
    halo_bytes += 8.0 * static_cast<double>(c.halo_doubles);
    if (c.timeline) {
      s.fpga_solve_s = std::max(s.fpga_solve_s, c.timeline->total_seconds() / solves);
      s.fpga_apply_s = std::max(s.fpga_apply_s, c.timeline->operator_seconds / solves);
    }
  }
  // The slowest rank's time in reductions and passes bounds the vector work.
  const double vector_s = per_solve_extreme(
      entries, solves, [](const LayerCounters& c) { return c.reduce_s + c.pass_s; }, true);
  s.vector_gbs = vector_s > 0.0 ? bytes / solves / vector_s / 1e9 : 0.0;
  // One halo exchange per operator apply, one apply per iteration.
  s.halo_msgs_per_iter = halo_msgs / solves;
  s.halo_bytes_per_iter = halo_bytes / solves;
  s.allreduce_calls_per_iter = collective ? s.reduce_calls_per_iter : 0.0;
  return s;
}

KernelProbe probe_kernel(semfpga::solver::PoissonSystem& system, int threads,
                         std::uint64_t seed) {
  const std::size_t n = system.n_local();
  semfpga::aligned_vector<double> u(n);
  semfpga::aligned_vector<double> w(n);
  semfpga::SplitMix64 rng(seed);
  for (double& v : u) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto time_median = [](auto&& call) {
    call();  // warm-up
    std::vector<double> samples;
    const double start = now_seconds();
    while (samples.size() < 5 || (now_seconds() - start < 0.3 && samples.size() < 200)) {
      const double t0 = now_seconds();
      call();
      samples.push_back(now_seconds() - t0);
    }
    return median(samples);
  };

  const int degree = system.ref().n1d() - 1;
  const semfpga::model::KernelCost cost =
      system.operator_kind() == semfpga::solver::OperatorKind::kHelmholtz
          ? semfpga::model::helmholtz_cost(degree)
          : semfpga::model::poisson_cost(degree);
  const auto flops = static_cast<double>(system.operator_flops());
  const double bytes = static_cast<double>(cost.bytes_per_dof()) * static_cast<double>(n);

  KernelProbe probe;
  const int saved_threads = system.threads();
  system.set_threads(threads);
  const double apply_s = time_median([&] { system.apply_local(u, w); });
  system.set_threads(1);
  const double apply_1t_s = time_median([&] { system.apply_local(u, w); });
  system.set_threads(saved_threads);
  probe.apply_ms = 1e3 * apply_s;
  probe.gflops = flops / apply_s / 1e9;
  probe.gflops_1t = flops / apply_1t_s / 1e9;
  probe.flop_per_byte = flops / bytes;

  // qqt streams the local vector in and out once and reads one int64
  // position per local DOF plus the CSR row offsets (computed bytes).
  const semfpga::solver::GatherScatter& gs = system.gs();
  const double qqt_s = time_median([&] { gs.qqt(w, threads); });
  const double gs_bytes = 24.0 * static_cast<double>(n) +
                          8.0 * static_cast<double>(gs.n_global() + 1);
  probe.qqt_ms = 1e3 * qqt_s;
  probe.gs_gbs = gs_bytes / qqt_s / 1e9;
  return probe;
}

void report_layers(const LayerReport& r, RunResult& result) {
  const SolveLayers& s = r.solve;
  result.metric("op.apply_s", s.apply_s, "s");
  result.metric("op.apply_calls", s.apply_calls, "count");
  result.metric("cg.reduce_s", s.reduce_s, "s");
  result.metric("cg.reduce_calls_per_iter", s.reduce_calls_per_iter, "count");
  result.metric("cg.pass_s", s.pass_s, "s");
  result.metric("cg.pass_calls_per_iter", s.pass_calls_per_iter, "count");
  result.metric("cg.iterations", r.iterations, "count");
  result.metric("cg.vector_gbs", s.vector_gbs, "GB/s");
  result.metric("cg.vector_bw_ratio", r.triad_gbs > 0.0 ? s.vector_gbs / r.triad_gbs : 0.0,
                "ratio");
  result.metric("kernel.apply_ms", r.kernel.apply_ms, "ms");
  result.metric("kernel.gflops", r.kernel.gflops, "GFLOP/s");
  result.metric("kernel.flop_per_byte", r.kernel.flop_per_byte, "flop/B");
  result.metric("kernel.gflops_1t", r.kernel.gflops_1t, "GFLOP/s");
  result.metric("gs.qqt_ms", r.kernel.qqt_ms, "ms");
  result.metric("gs.gbs", r.kernel.gs_gbs, "GB/s");
  result.metric("mem.triad_gbs", r.triad_gbs, "GB/s");
  result.metric("rank.apply_s.max", s.rank_apply_max, "s");
  result.metric("rank.apply_s.min", s.rank_apply_min, "s");
  result.metric("rank.reduce_s.max", s.rank_reduce_max, "s");
  result.metric("rank.reduce_s.min", s.rank_reduce_min, "s");
  result.metric("halo.msgs_per_iter", s.halo_msgs_per_iter, "count");
  result.metric("halo.bytes_per_iter", s.halo_bytes_per_iter, "B");
  result.metric("allreduce.calls_per_iter", s.allreduce_calls_per_iter, "count");
  result.metric("setup.mesh_s", r.setup_mesh_s, "s");
  result.metric("setup.system_s", r.setup_system_s, "s");
  result.metric("setup.backend_s", r.setup_backend_s, "s");
  result.metric("svc.queue_wait_p50_s", r.svc_queue_wait_p50_s, "s");
  result.metric("svc.queue_wait_p99_s", r.svc_queue_wait_p99_s, "s");
  result.metric("svc.service_p50_s", r.svc_service_p50_s, "s");
  result.metric("svc.cache_hit_ratio", r.svc_cache_hit_ratio, "ratio");
  result.metric("svc.batch_mean", r.svc_batch_mean, "count");
  result.metric("svc.backlog_end", r.svc_backlog_end, "count");
  result.metric("svc.gen_lateness_p99_s", r.svc_gen_lateness_p99_s, "s");
  result.metric("svc.latency_p99_s", r.svc_latency_p99_s, "s");
  result.metric("svc.latency_p99_s.near_cap", r.svc_latency_p99_near_cap_s, "s");
  result.metric("svc.max_rate_rps", r.svc_max_rate_rps, "1/s");
  result.metric("model.fpga_solve_s", s.fpga_solve_s, "s");
  result.metric("model.fpga_apply_s", s.fpga_apply_s, "s");
  result.metric("trace.overhead_ratio", r.trace_overhead_ratio, "ratio");
  result.metric("obs.overhead_ratio", r.obs_overhead_ratio, "ratio");
}

void report_end_to_end(const EndToEndReport& r, RunResult& result) {
  result.metric("solve_s", r.solve_s, "s");
  result.metric("setup_s", r.setup_s, "s");
  result.metric("peak_rss_mb", r.peak_rss_mb, "MB");
}

double measure_triad(RunResult& result) {
  const std::size_t llc = llc_bytes();
  const std::size_t array_bytes = 4 * (llc > 0 ? llc : (std::size_t{64} << 20));
  const int threads = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  const double gbs = triad_gbs(array_bytes, threads, 5);
  result.check(gbs > 0.0, "triad produced the expected values");
  result.context("triad_array_bytes", static_cast<double>(array_bytes));
  return gbs;
}

}  // namespace perfbench
