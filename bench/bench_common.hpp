// Shared helpers for the experiment benches (E1..E8). The update model
// they measure is described in the README section "Update semantics and
// the planner/checker kernel".
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "tsu/core/experiment.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/stats/table.hpp"
#include "tsu/util/strings.hpp"

namespace tsu::bench {

// The asynchrony regime of the demo: jittery control channel, noisy
// installs, steady probe traffic.
inline core::ExecutorConfig harsh_config(std::uint64_t seed) {
  core::ExecutorConfig config;
  config.seed = seed;
  config.channel.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(8));
  config.switch_config.install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(2), 1.0);
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  return config;
}

inline std::vector<std::uint64_t> seed_range(std::size_t count,
                                             std::uint64_t base = 1) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = base + i;
  return seeds;
}

inline std::string fmt(double value, int precision = 2) {
  return format_double(value, precision);
}

inline void print_header(const char* experiment, const char* title,
                         const char* paper_artifact) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", experiment, title);
  std::printf("paper artifact: %s\n", paper_artifact);
  std::printf("================================================================\n\n");
}

inline void print_table(const stats::Table& table) {
  std::fputs(table.to_markdown().c_str(), stdout);
  std::fputs("\n", stdout);
}

}  // namespace tsu::bench
