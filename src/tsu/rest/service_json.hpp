// JSON views of the open-loop service's live state (core/service.hpp) -
// the documents behind `sim_cli --serve` and a REST stats endpoint. Thin
// adapter layered ABOVE both rest and core: core never includes this.
#pragma once

#include <string>

#include "tsu/core/service.hpp"

namespace tsu::rest {

// One live snapshot: the ServiceStats counters so far (the same keys as
// the final document's), instantaneous depths, window throughput, and
// streaming latency quantiles.
std::string to_json(const core::ServiceSnapshot& snapshot);

// Final run document: totals, latency/wait summary, drain proof
// (steady_state_entries_final) and sustained throughput.
std::string to_json(const core::ServiceResult& result);

}  // namespace tsu::rest
