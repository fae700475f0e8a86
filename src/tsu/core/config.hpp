// JSON-configurable experiments: parse an ExecutorConfig (and the latency
// models inside it) from a config document, so deployments and experiment
// sweeps can be described as data instead of code.
//
// The schema is the knob list in config.cpp (visit_knobs): each knob's key,
// block, unit, bound and sim_cli flag, declared once. Every field is
// optional and unknown keys are rejected. A value of the wrong JSON type,
// or a name an enum knob does not know, is a kParseError; a number outside
// its knob's bound is a kOutOfRange. Durations are written in ms (µs for
// the "_us" keys) and held in nanoseconds, saturating at
// sim::kMaxDuration.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/core/service.hpp"
#include "tsu/json/json.hpp"
#include "tsu/util/status.hpp"

namespace tsu::core {

// Parses a latency model from its JSON description, one of:
//   { "kind": "constant",    "ms": 1.0 }
//   { "kind": "uniform",     "lo_ms": 0.1, "hi_ms": 8.0 }
//   { "kind": "exponential", "mean_ms": 1.0 }
//   { "kind": "lognormal",   "median_ms": 1.0, "sigma": 0.5 }
//   { "kind": "pareto",      "lo_ms": 0.5, "hi_ms": 50.0, "alpha": 1.3 }
// checked after conversion to nanoseconds: an exponential mean or lognormal
// median of at least 1 ns, and a pareto with 1 ns <= lo < hi.
Result<sim::LatencyModel> latency_from_json(const json::Value& value);

// Parses a full executor configuration; fields not present keep the
// defaults of ExecutorConfig{}.
Result<ExecutorConfig> config_from_json(std::string_view text);
Result<ExecutorConfig> config_from_json(const json::Value& value);

// Round-trip support: renders a config back to JSON (compact).
json::Value config_to_json(const ExecutorConfig& config);

// Parses a service document: executor fields at the top level plus an
// optional "service" block of ServiceConfig's own knobs. Fields not present
// keep ServiceConfig defaults.
Result<ServiceConfig> service_config_from_json(std::string_view text);
Result<ServiceConfig> service_config_from_json(const json::Value& value);

// Renders the service document (executor fields + "service" block).
json::Value service_config_to_json(const ServiceConfig& config);

// One entry of the knob list, without the field it sets.
struct Knob {
  // Where the key sits: the top level or one block object.
  enum class Block : std::uint8_t {
    kTop, kChannel, kSwitch, kTraffic, kService,
  };
  // How the JSON value reads. kMs and kUs amounts become nanoseconds.
  enum class Unit : std::uint8_t {
    kBool, kCount, kMs, kUs, kFraction, kRate, kEnum, kLatency, kFaults,
  };

  const char* key = nullptr;
  Block block = Block::kTop;
  Unit unit = Unit::kCount;
  // Inclusive bounds of a count or number knob.
  double lo = 0;
  double hi = 0;
  const char* flag = nullptr;  // sim_cli's flag, if the knob has one
  const char* doc = nullptr;   // what the flag sets, for sim_cli --help
};

// The block's key in a document ("config" for the top level).
const char* to_string(Knob::Block block) noexcept;

// Every knob, in the order the renderers write them.
const std::vector<Knob>& knobs();

// Sets the knob behind a sim_cli flag as {"key": VALUE} in a document
// would, through the same check. `value` reads as JSON, or as a string when
// it is not JSON; a kFaults flag names a JSON file, and a kBool flag stands
// alone (pass "true").
Status set_knob_flag(ServiceConfig& config, std::string_view flag,
                     std::string_view value);

// sim_cli --help's lines for the knob flags: flag, knob, bound and doc.
std::string knob_flag_usage();

}  // namespace tsu::core
