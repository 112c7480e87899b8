#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void RunResult::context(const std::string& key, double value) {
  context(key, json_number(value));
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void RunResult::tally(std::int64_t attempted, std::int64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "perfbench: " << failed << " of " << attempted << " failed: " << what << "\n";
  }
}

void RunResult::print() const {
  std::string ctx = "{\"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    ctx += (i ? ", " : "") + json_string(context_[i].first) + ": " + context_[i].second;
  }
  std::cout << ctx << "}}\n";

  bool finite = true;
  std::string line = "{\"correct\": ";
  std::string metrics = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    finite = finite && std::isfinite(m.value);
    metrics += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
               json_number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  metrics += "}";
  if (!finite) {
    std::cerr << "perfbench: a metric is not finite\n";
  }
  line += (failed_ == 0 && attempted_ > 0 && finite) ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": " + metrics + "}";
  std::cout << line << std::endl;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Tail supported_tail(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.size() < 11) {
    return tail;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // At p99 the share beyond is 1%; fewer than 1000 samples leave fewer than
  // ten there, so step down to the percentile with exactly ten beyond.
  const std::size_t beyond = std::max<std::size_t>(10, (n + 99) / 100);
  tail.value = v[n - 1 - beyond];
  tail.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return tail;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream size_file(dir + "size");
    std::ifstream level_file(dir + "level");
    std::string size;
    int level = 0;
    if (!(size_file >> size) || !(level_file >> level)) {
      continue;
    }
    std::size_t bytes = std::stoull(size);
    if (size.back() == 'K') {
      bytes <<= 10;
    } else if (size.back() == 'M') {
      bytes <<= 20;
    }
    if (level >= 2) {
      best = std::max(best, bytes);
    }
  }
  return best;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  semfpga::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.next_u64();
}

double hashed_forcing(std::uint64_t seed, double x, double y, double z) {
  std::uint64_t bits[3];
  const double coords[3] = {x, y, z};
  std::memcpy(bits, coords, sizeof bits);
  std::uint64_t h = seed;
  for (const std::uint64_t b : bits) {
    h = semfpga::SplitMix64(h ^ b).next_u64();
  }
  return semfpga::SplitMix64(h).uniform(-1.0, 1.0);
}

double triad_gbs(std::size_t bytes_per_array, int threads, int reps) {
  const std::size_t n = bytes_per_array / sizeof(double);
  semfpga::aligned_vector<double> a(n);
  semfpga::aligned_vector<double> b(n);
  semfpga::aligned_vector<double> c(n);
  const auto team_size = static_cast<std::size_t>(threads);
  const auto for_chunks = [&](auto&& body) {
    std::vector<std::thread> team;
    for (std::size_t t = 0; t < team_size; ++t) {
      team.emplace_back([&, t] { body(n * t / team_size, n * (t + 1) / team_size); });
    }
    for (std::thread& th : team) {
      th.join();
    }
  };
  // First touch on the same chunking as the timed passes.
  for_chunks([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    for_chunks([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        a[i] = b[i] + 3.0 * c[i];
      }
    });
    const double dt = now_seconds() - t0;
    rates.push_back(3.0 * static_cast<double>(n) * sizeof(double) / dt / 1e9);
  }
  if (a[n / 2] != 7.0) {
    return 0.0;  // the caller's check flags a zero bandwidth
  }
  return median(rates);
}

}  // namespace perfbench
