#include "backend/backend.hpp"

#include <map>
#include <stdexcept>

#include "backend/cpu_backend.hpp"
#include "backend/distributed_backend.hpp"
#include "backend/fpga_sim_backend.hpp"

namespace semfpga::backend {

Backend::~Backend() = default;

double Backend::dot(std::span<const double> a, std::span<const double> b) {
  const auto& c = inv_multiplicity();
  return reduce(kDotPassCost, [&](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      acc += a[i] * b[i] * c[i];
    }
    return acc;
  });
}

namespace {

struct Registry {
  /// Ordered: registration order is the order known_backends() reports and
  /// the CLI help lists.
  std::vector<std::pair<std::string, Factory>> entries;

  Factory* find(const std::string& name) {
    for (auto& [key, factory] : entries) {
      if (key == name) {
        return &factory;
      }
    }
    return nullptr;
  }
};

Registry& registry() {
  static Registry r = [] {
    Registry init;
    init.entries.emplace_back(
        "cpu", [](const solver::PoissonSystem& system, const MakeOptions& options) {
          return std::make_unique<CpuBackend>(system, options.vector_threads);
        });
    init.entries.emplace_back(
        "fpga-sim",
        [](const solver::PoissonSystem& system, const MakeOptions& options) {
          return std::make_unique<FpgaSimBackend>(system, fpga_sim_options(options),
                                                  options.vector_threads);
        });
    return init;
  }();
  return r;
}

}  // namespace

std::vector<std::string> known_backends() {
  std::vector<std::string> names;
  names.reserve(registry().entries.size());
  for (const auto& [key, factory] : registry().entries) {
    names.push_back(key);
  }
  return names;
}

std::string known_backends_joined() {
  std::string joined;
  for (const auto& [key, factory] : registry().entries) {
    if (!joined.empty()) {
      joined += '|';
    }
    joined += key;
  }
  return joined;
}

void require_known(const std::string& name) {
  if (registry().find(name) == nullptr) {
    throw std::invalid_argument("unknown backend '" + name +
                                "' (known: " + known_backends_joined() + ")");
  }
}

std::unique_ptr<Backend> make(const std::string& name,
                              const solver::PoissonSystem& system,
                              const MakeOptions& options) {
  Factory* factory = registry().find(name);
  if (factory == nullptr) {
    throw std::invalid_argument("unknown backend '" + name +
                                "' (known: " + known_backends_joined() + ")");
  }
  return (*factory)(system, options);
}

void register_backend(const std::string& name, Factory factory) {
  Registry& r = registry();
  if (Factory* existing = r.find(name)) {
    *existing = std::move(factory);
    return;
  }
  r.entries.emplace_back(name, std::move(factory));
}

namespace {

/// Rank-backend registry: same ordered shape as the single-rank one, but
/// factories adapt a RankSystem (the distributed tier's per-rank seam).
struct RankRegistry {
  std::vector<std::pair<std::string, RankFactory>> entries;

  RankFactory* find(const std::string& name) {
    for (auto& [key, factory] : entries) {
      if (key == name) {
        return &factory;
      }
    }
    return nullptr;
  }
};

RankRegistry& rank_registry() {
  static RankRegistry r = [] {
    RankRegistry init;
    init.entries.emplace_back(
        "cpu", [](runtime::RankSystem& rs, const MakeOptions&) {
          return std::make_unique<DistributedBackend>(rs);
        });
    init.entries.emplace_back(
        "fpga-sim", [](runtime::RankSystem& rs, const MakeOptions& options) {
          return std::make_unique<DistributedBackend>(rs, fpga_sim_options(options));
        });
    return init;
  }();
  return r;
}

}  // namespace

std::vector<std::string> known_rank_backends() {
  std::vector<std::string> names;
  names.reserve(rank_registry().entries.size());
  for (const auto& [key, factory] : rank_registry().entries) {
    names.push_back(key);
  }
  return names;
}

std::string known_rank_backends_joined() {
  std::string joined;
  for (const auto& [key, factory] : rank_registry().entries) {
    if (!joined.empty()) {
      joined += '|';
    }
    joined += key;
  }
  return joined;
}

void require_known_rank(const std::string& name) {
  if (rank_registry().find(name) == nullptr) {
    throw std::invalid_argument("unknown rank backend '" + name +
                                "' (known: " + known_rank_backends_joined() + ")");
  }
}

std::unique_ptr<Backend> make_rank(const std::string& name, runtime::RankSystem& rs,
                                   const MakeOptions& options) {
  RankFactory* factory = rank_registry().find(name);
  if (factory == nullptr) {
    throw std::invalid_argument("unknown rank backend '" + name +
                                "' (known: " + known_rank_backends_joined() + ")");
  }
  return (*factory)(rs, options);
}

void register_rank_backend(const std::string& name, RankFactory factory) {
  RankRegistry& r = rank_registry();
  if (RankFactory* existing = r.find(name)) {
    *existing = std::move(factory);
    return;
  }
  r.entries.emplace_back(name, std::move(factory));
}

}  // namespace semfpga::backend
