#include "tsu/sim/exec_mode.hpp"

namespace tsu::sim {

const char* to_string(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kSequential: return "sequential";
    case ExecMode::kParallel: return "parallel";
  }
  return "?";
}

}  // namespace tsu::sim
