// JSON-configurable experiments: parse an ExecutorConfig (and the latency
// models inside it) from a config document, so deployments and experiment
// sweeps can be described as data instead of code.
//
// Schema (all fields optional; unknown keys are rejected):
// {
//   "seed": 1,
//   "channel":  { "latency": <latency>, "loss": 0.01,
//                 "retransmit_timeout_ms": 50 },
//   "switch":   { "install": <latency>, "barrier_us": 100,
//                 "processing_us": 10, "batch_replies": false },
//   "use_barriers": true,
//   "max_in_flight": 1,
//   "batch_mode": "off" | "adaptive",
//   "batch_window_ms": 0.5, "batch_bytes": 16384,
//   "admission": "blind" | "conflict_aware",
//   "shards": 1, "partition": "hash" | "block" | "greedy_cut",
//   "exec": "sequential" | "parallel", "threads": 0,
//   "flow": 1, "priority": 100, "interval_ms": 0,
//   "liveness_timeout_ms": 0, "failure_response": "wait" | "rollback",
//   "resubmit": true,
//   "faults":   { "events": [ { "kind": "crash" | "link_down" | "blackhole",
//                 "at_ms": 8, "node": 3, "down_ms": 5, "lose_state": true,
//                 "frames": 2 }, ... ] }   (or the bare events array),
//   "traffic":  { "enabled": true, "interarrival": <latency>,
//                 "link": <latency>, "ttl": 64,
//                 "warmup_ms": 5, "drain_ms": 20 }
// }
// <latency> is one of:
//   { "kind": "constant",    "ms": 1.0 }
//   { "kind": "uniform",     "lo_ms": 0.1, "hi_ms": 8.0 }
//   { "kind": "exponential", "mean_ms": 1.0 }
//   { "kind": "lognormal",   "median_ms": 1.0, "sigma": 0.5 }
//   { "kind": "pareto",      "lo_ms": 0.5, "hi_ms": 50.0, "alpha": 1.3 }
//
// A service document (service_config_from_json) reuses the executor schema
// at the top level and adds one "service" object carrying the open-loop
// knobs (core/service.hpp):
//   "service": {
//     "flows": 8, "pool_switches": 48, "rate_per_sec": 2000,
//     "horizon_ms": 0, "target": 0, "max_pending": 1024,
//     "snapshot_interval_ms": 0, "snapshot_window": 64
//   }
// "rate_per_sec" is in (0, 1e9]. Latency models are checked after
// conversion to nanoseconds: an exponential mean or lognormal median of at
// least 1 ns, and a pareto with 1 ns <= lo < hi.
#pragma once

#include <string_view>

#include "tsu/core/executor.hpp"
#include "tsu/core/service.hpp"
#include "tsu/json/json.hpp"
#include "tsu/util/status.hpp"

namespace tsu::core {

// Parses a latency model from its JSON description.
Result<sim::LatencyModel> latency_from_json(const json::Value& value);

// Parses a full executor configuration; fields not present keep the
// defaults of ExecutorConfig{}.
Result<ExecutorConfig> config_from_json(std::string_view text);
Result<ExecutorConfig> config_from_json(const json::Value& value);

// Round-trip support: renders a config back to JSON (compact).
json::Value config_to_json(const ExecutorConfig& config);

// Parses a service document: executor fields at the top level plus the
// optional "service" block above. Fields not present keep ServiceConfig
// defaults; unknown keys (either level) are rejected.
Result<ServiceConfig> service_config_from_json(std::string_view text);
Result<ServiceConfig> service_config_from_json(const json::Value& value);

// Renders the service document (executor fields + "service" block).
json::Value service_config_to_json(const ServiceConfig& config);

}  // namespace tsu::core
