/// service-open: open-loop Poisson arrivals into a SolveServer.
///
/// One client thread submits requests on an absolute schedule (each at its
/// own due time, so a stall never shifts later arrivals) and collects the
/// responses.  Latency is measured on the client side from each request's
/// due time.  The request
/// mix is Poisson/Helmholtz at small orders and meshes, drawn Zipf-skewed
/// over more setup keys than the server's setup cache holds, so the cache
/// both hits and misses.  Rates and the latency limit are fixed constants
/// below, in requests per second of this benchmark's mix.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "sem/mesh.hpp"
#include "service/server.hpp"
#include "solver/system_setup.hpp"

namespace perfbench {
namespace {

using namespace semfpga;

constexpr int kWorkers = 2;
constexpr int kSolveThreads = 1;
constexpr std::size_t kMaxBatch = 4;
constexpr std::size_t kCacheCapacity = 8;
constexpr std::size_t kQueueCapacity = 1 << 20;  ///< admission never rejects
constexpr int kDegrees[] = {3, 4, 5, 6, 7};
constexpr int kNels[] = {3, 4};
constexpr double kZipfExponent = 1.7;
constexpr double kTolerance = 1e-8;
constexpr int kMaxIterations = 1000;

/// Offered rates (requests/s) and the latency limit on the tail percentile.
constexpr double kNominalRps = 120.0;
constexpr double kNearCapRps = 400.0;
constexpr double kLatencyLimitS = 0.25;
/// Share of requests whose solution is checked against the standalone solve.
constexpr int kSpotCheckEvery = 64;

constexpr int kSetupRepeats = 6;  ///< the first one is a warm-up
constexpr double kWarmupSeconds = 1.0;
constexpr double kSearchStepSeconds = 2.0;

struct Key {
  int degree = 2;
  int nel = 2;
  solver::OperatorKind kind = solver::OperatorKind::kPoisson;
};

/// The setup keys and their Zipf CDF.  Popularity falls with request size
/// (local DOFs), so most requests are small and the rare large ones miss
/// the cache.  The exponent gives the two smallest keys, the Poisson and
/// Helmholtz solves at N = 3 on 3^3 elements whose latencies are alike,
/// about 70% of the requests.  The median latency then lies well inside
/// their one latency cluster and does not hop to the next, 2.5x slower key
/// with the sampling noise of the seed or the cache's hit pattern.  The seed
/// draws only the individual requests: every seed offers the same mix.
struct Mix {
  std::vector<Key> keys;
  std::vector<double> cdf;

  Mix() {
    for (const int degree : kDegrees) {
      for (const int nel : kNels) {
        for (const auto kind :
             {solver::OperatorKind::kPoisson, solver::OperatorKind::kHelmholtz}) {
          keys.push_back({degree, nel, kind});
        }
      }
    }
    const auto dofs = [](const Key& k) { return std::pow(k.nel * (k.degree + 1), 3); };
    std::stable_sort(keys.begin(), keys.end(),
                     [&](const Key& a, const Key& b) { return dofs(a) < dofs(b); });
    double total = 0.0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) {
      c /= total;
    }
  }

  [[nodiscard]] service::SolveRequest request(const Key& key, std::uint64_t rhs_seed) const {
    service::SolveRequest r;
    r.mesh.degree = key.degree;
    r.mesh.nelx = r.mesh.nely = r.mesh.nelz = key.nel;
    r.kind = key.kind;
    r.lambda = 1.0;
    r.rhs_seed = rhs_seed;
    r.tolerance = kTolerance;
    r.max_iterations = kMaxIterations;
    return r;
  }

  [[nodiscard]] service::SolveRequest draw(SplitMix64& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto k = static_cast<std::size_t>(std::min<std::ptrdiff_t>(
        it - cdf.begin(), static_cast<std::ptrdiff_t>(keys.size()) - 1));
    return request(keys[k], rng.next_u64());
  }
};

struct Arrival {
  double due = 0.0;  ///< seconds after the phase start
  service::SolveRequest request;
};

/// Poisson arrivals at `rate` for `seconds`, with every kSpotCheckEvery-th
/// request (from a seeded offset) asking for its solution back.
std::vector<Arrival> make_schedule(const Mix& mix, std::uint64_t seed, double rate,
                                   double seconds) {
  SplitMix64 rng(seed);
  std::vector<Arrival> schedule;
  const auto offset = static_cast<std::size_t>(rng.next_below(kSpotCheckEvery));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) {
      break;
    }
    Arrival a{t, mix.draw(rng)};
    a.request.return_solution = schedule.size() % kSpotCheckEvery == offset;
    schedule.push_back(std::move(a));
  }
  return schedule;
}

service::ServerConfig server_config() {
  service::ServerConfig c;
  c.workers = kWorkers;
  c.solve_threads = kSolveThreads;
  c.max_batch = kMaxBatch;
  c.cache_capacity = kCacheCapacity;
  c.queue_capacity = kQueueCapacity;
  c.backend = "cpu";
  return c;
}

/// Raw per-request samples of one open-loop phase.
struct Phase {
  double rate = 0.0;
  std::vector<double> latency;   ///< due -> response seen by the client
  std::vector<double> lateness;  ///< due -> submitted
  std::vector<double> queue_wait;
  /// Server-side CG time only (SolveResponse::solve_seconds): it excludes
  /// the setup lookup or build on a cache miss and the wait behind earlier
  /// solves of the same batch, which show only in `latency`.
  std::vector<double> service;
  std::int64_t cache_hits = 0;
  double batch_sum = 0.0;
  std::int64_t errors = 0;  ///< rejected, expired, failed or not converged
  std::int64_t over_limit = 0;
  std::size_t backlog_end = 0;  ///< outstanding when the last request went out
  std::vector<std::pair<service::SolveRequest, service::SolveResponse>> spot;

  [[nodiscard]] std::size_t requests() const noexcept {
    return latency.size() + static_cast<std::size_t>(errors);
  }
};

/// Offers `schedule` to `server` open-loop and collects every response.
/// One client thread, the caller, does both jobs in a busy loop: it submits
/// each request once its due time has come and polls every outstanding
/// response, timing each as soon as it is ready, in whatever order they
/// finish.  The loop spins instead of sleeping because waking a sleeping
/// thread on a shared VM can take milliseconds, which would be timed as
/// generator lateness and request latency.
Phase run_open_loop(service::SolveServer& server, const std::vector<Arrival>& schedule,
                    double rate) {
  using clock = std::chrono::steady_clock;
  const std::size_t n = schedule.size();
  const clock::time_point start = clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double>(schedule[i].due));
  };
  const auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };

  std::vector<std::future<service::SolveResponse>> futures(n);
  std::vector<double> lateness(n, 0.0);
  std::vector<double> latency(n, 0.0);
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  std::size_t done = 0;
  std::size_t backlog_end = 0;
  while (done < n) {
    if (next < n && clock::now() >= due_at(next)) {
      lateness[next] = seconds_since(due_at(next));
      try {
        futures[next] = server.submit(schedule[next].request);
      } catch (const std::exception&) {
        // Rejected at admission: an invalid future counts as an error.
      }
      outstanding.push_back(next++);
      if (next == n) {
        backlog_end = outstanding.size();
      }
      continue;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (futures[i].valid() &&
          futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      latency[i] = seconds_since(due_at(i));
      ++done;
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
  }

  Phase phase;
  phase.rate = rate;
  phase.lateness = std::move(lateness);
  phase.backlog_end = backlog_end;
  for (std::size_t i = 0; i < n; ++i) {
    if (!futures[i].valid()) {
      ++phase.errors;
      continue;
    }
    service::SolveResponse r = futures[i].get();
    if (r.outcome != service::Outcome::kSolved || !r.converged) {
      ++phase.errors;
      continue;
    }
    phase.latency.push_back(latency[i]);
    phase.over_limit += latency[i] > kLatencyLimitS ? 1 : 0;
    phase.queue_wait.push_back(r.queue_seconds);
    phase.service.push_back(r.solve_seconds);
    phase.cache_hits += r.setup_cache_hit ? 1 : 0;
    phase.batch_sum += r.batch_size;
    if (schedule[i].request.return_solution) {
      phase.spot.emplace_back(schedule[i].request, std::move(r));
    }
  }
  return phase;
}

/// Each sampled response must equal the standalone solve bitwise.
void spot_check(const Phase& phase, RunResult& result) {
  for (const auto& [request, response] : phase.spot) {
    const service::SolveResponse ref =
        service::solve_standalone(request, "cpu", {}, kSolveThreads);
    result.check(response.iterations == ref.iterations &&
                     bitwise_equal(std::span<const double>(&response.final_residual, 1),
                                   std::span<const double>(&ref.final_residual, 1)) &&
                     bitwise_equal(response.solution, ref.solution),
                 "service response equals the standalone solve bitwise");
  }
}

/// Server start plus the cache-cold pass over the hot keys (as many as the
/// cache holds), until the last response arrives.
double timed_cold_start(const Mix& mix) {
  const double t0 = now_seconds();
  service::SolveServer server(server_config());
  std::vector<std::future<service::SolveResponse>> futures;
  for (std::size_t k = 0; k < kCacheCapacity; ++k) {
    futures.push_back(server.submit(mix.request(mix.keys[k], k + 1)));
  }
  for (auto& f : futures) {
    f.wait();
  }
  const double elapsed = now_seconds() - t0;
  server.stop();
  return elapsed;
}

double median_cold_start(const Mix& mix) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double s = timed_cold_start(mix);
    if (i > 0) {
      samples.push_back(s);
    }
  }
  return median(samples);
}

/// A rate passes when nothing errs, the supported tail meets the latency
/// limit, and the backlog left when arrivals stop clears within the limit.
bool rate_passes(const Phase& p) {
  const Tail tail = supported_tail(p.latency);
  return p.errors == 0 && tail.samples > 10 && tail.value <= kLatencyLimitS &&
         static_cast<double>(p.backlog_end) <= std::max(8.0, p.rate * kLatencyLimitS);
}

void run_service_traced(const RunOptions& o, const Mix& mix, RunResult& result) {
  LayerReport report;
  report.triad_gbs = measure_triad(result);

  // Setup layers and the kernel on the most popular key.
  const service::SolveRequest top = mix.request(mix.keys[0], sub_seed(o.seed, 5));
  std::vector<double> mesh_s, system_s, backend_s;
  std::unique_ptr<solver::PoissonSystem> system;
  for (int i = 0; i < kSetupRepeats; ++i) {
    system.reset();
    const double t0 = now_seconds();
    sem::Mesh mesh = sem::box_mesh(top.mesh);
    const double t1 = now_seconds();
    const double mass = top.kind == solver::OperatorKind::kHelmholtz ? top.lambda : 0.0;
    system =
        service::make_system(solver::SystemSetup::build_owning(std::move(mesh), mass), top);
    system->set_threads(kSolveThreads);
    const double t2 = now_seconds();
    const auto be = backend::make("cpu", *system);
    const double t3 = now_seconds();
    if (i > 0) {
      mesh_s.push_back(t1 - t0);
      system_s.push_back(t2 - t1);
      backend_s.push_back(t3 - t2);
    }
  }
  report.setup_mesh_s = median(mesh_s);
  report.setup_system_s = median(system_s);
  report.setup_backend_s = median(backend_s);
  report.kernel = probe_kernel(*system, kSolveThreads, sub_seed(o.seed, 9));

  // One representative request through the decorated backends.
  service::SolveRequest checked = top;
  checked.return_solution = true;
  const service::SolveResponse ref =
      service::solve_standalone(checked, "cpu", {}, kSolveThreads);
  result.check(ref.outcome == service::Outcome::kSolved && ref.converged,
               "representative request converged");
  report.iterations = ref.iterations;
  const auto same_as_ref = [&](const service::SolveResponse& r, const std::string& what) {
    result.check(r.iterations == ref.iterations && bitwise_equal(r.solution, ref.solution),
                 what + " solve is bitwise equal to the plain cpu solve");
  };
  constexpr int kTracedSolves = 5;
  std::vector<double> plain_s, traced_s;
  for (int k = 0; k < kTracedSolves; ++k) {
    const service::SolveResponse plain =
        service::solve_standalone(checked, "cpu", {}, kSolveThreads);
    same_as_ref(plain, "repeated cpu");
    plain_s.push_back(plain.solve_seconds);
    const service::SolveResponse traced =
        service::solve_standalone(checked, "traced-cpu", {}, kSolveThreads);
    same_as_ref(traced, "traced-cpu");
    traced_s.push_back(traced.solve_seconds);
  }
  report.solve = fold_counters(take_layer_counters(), kTracedSolves, false);
  report.trace_overhead_ratio = median(traced_s) / median(plain_s);
  obs::configure(obs::parse_obs("summary"));
  const service::SolveResponse observed =
      service::solve_standalone(checked, "cpu", {}, kSolveThreads);
  obs::configure(obs::ObsConfig{});
  same_as_ref(observed, "obs-on cpu");
  report.obs_overhead_ratio = observed.solve_seconds / median(plain_s);
  same_as_ref(service::solve_standalone(checked, "traced-fpga-sim", {}, kSolveThreads),
              "fpga-sim");
  const SolveLayers model = fold_counters(take_layer_counters(), 1, false);
  report.solve.fpga_solve_s = model.fpga_solve_s;
  report.solve.fpga_apply_s = model.fpga_apply_s;

  // The service layer at the nominal rate, then near capacity, then the
  // highest passing rate, all on one warm server.
  service::SolveServer server(server_config());
  const std::vector<Arrival> warmup =
      make_schedule(mix, sub_seed(o.seed, 3), kNominalRps, kWarmupSeconds);
  (void)run_open_loop(server, warmup, kNominalRps);
  const double phase_s = std::max(2.0, o.seconds / 3.0);
  const Phase nominal = run_open_loop(
      server, make_schedule(mix, sub_seed(o.seed, 4), kNominalRps, phase_s), kNominalRps);
  result.check(nominal.errors == 0 && nominal.over_limit == 0,
               "every nominal-rate request solved within the latency limit");
  spot_check(nominal, result);
  const auto n = static_cast<double>(std::max<std::size_t>(1, nominal.latency.size()));
  report.svc_queue_wait_p50_s = median(nominal.queue_wait);
  report.svc_queue_wait_p99_s = supported_tail(nominal.queue_wait).value;
  report.svc_service_p50_s = median(nominal.service);
  report.svc_cache_hit_ratio = static_cast<double>(nominal.cache_hits) / n;
  report.svc_batch_mean = nominal.batch_sum / n;
  report.svc_backlog_end = static_cast<double>(nominal.backlog_end);
  report.svc_gen_lateness_p99_s = supported_tail(nominal.lateness).value;
  report.svc_latency_p99_s = supported_tail(nominal.latency).value;

  const Phase near_cap = run_open_loop(
      server, make_schedule(mix, sub_seed(o.seed, 6), kNearCapRps, phase_s), kNearCapRps);
  result.check(near_cap.errors == 0, "every near-capacity request solved");
  report.svc_latency_p99_near_cap_s = supported_tail(near_cap.latency).value;

  // Double the rate from the near-capacity one until it fails, then bisect
  // on a geometric grid until the bracket is within 2%.
  std::uint64_t step = 0;
  const auto passes = [&](double rate) {
    return rate_passes(run_open_loop(
        server, make_schedule(mix, sub_seed(o.seed, 100 + step++), rate, kSearchStepSeconds),
        rate));
  };
  double lo = kNominalRps;
  double hi = kNearCapRps;
  while (step < 6 && passes(hi)) {
    lo = hi;
    hi *= 2.0;
  }
  while (hi / lo > 1.02) {
    const double rate = std::sqrt(lo * hi);
    (passes(rate) ? lo : hi) = rate;
  }
  report.svc_max_rate_rps = lo;
  result.context("rate_search_steps", static_cast<double>(step));
  report_layers(report, result);
}

}  // namespace

void run_service(const RunOptions& o, RunResult& result) {
  const Mix mix;
  result.context("nominal_rps", kNominalRps);
  result.context("near_cap_rps", kNearCapRps);
  result.context("latency_limit_s", kLatencyLimitS);
  result.context("setup_keys", static_cast<double>(mix.keys.size()));
  result.context("cache_capacity", static_cast<double>(kCacheCapacity));
  if (o.trace) {
    run_service_traced(o, mix, result);
    return;
  }

  EndToEndReport report;
  report.setup_s = median_cold_start(mix);
  service::SolveServer server(server_config());
  const std::vector<Arrival> warmup =
      make_schedule(mix, sub_seed(o.seed, 3), kNominalRps, kWarmupSeconds);
  (void)run_open_loop(server, warmup, kNominalRps);
  const Phase nominal = run_open_loop(
      server, make_schedule(mix, sub_seed(o.seed, 4), kNominalRps, o.seconds), kNominalRps);
  server.stop();
  report.peak_rss_mb = peak_rss_mb();
  result.tally(static_cast<std::int64_t>(nominal.requests()),
               nominal.errors + nominal.over_limit,
               "requests rejected, expired, failed, not converged or over the latency limit");
  spot_check(nominal, result);
  report.solve_s = median(nominal.latency);
  const Tail tail = supported_tail(nominal.latency);
  result.context("latency_tail_s", tail.value);
  result.context("latency_tail_percentile", tail.percentile);
  result.context("requests", static_cast<double>(nominal.requests()));
  result.context("cache_hit_ratio",
                 static_cast<double>(nominal.cache_hits) /
                     static_cast<double>(std::max<std::size_t>(1, nominal.latency.size())));
  result.context("generator_lateness_p99_s", supported_tail(nominal.lateness).value);
  report_end_to_end(report, result);
}

}  // namespace perfbench
