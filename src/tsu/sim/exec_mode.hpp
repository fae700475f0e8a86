// How a ShardedSim (sim/sharded.hpp) steps its shards. Split out so
// configuration layers (controller config, config JSON, sim_cli) can name
// the enum without pulling in the sharded stepper and its threading
// headers.
#pragma once

#include <cstdint>

namespace tsu::sim {

enum class ExecMode : std::uint8_t {
  kSequential = 0,  // single-threaded global merge (the PR 4 engine)
  kParallel = 1,    // worker-pool epochs between safe horizons
};

const char* to_string(ExecMode mode) noexcept;

}  // namespace tsu::sim
