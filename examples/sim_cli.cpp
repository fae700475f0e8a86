// Scenario driver: run any scheduler on any built-in workload from the
// command line, optionally under a JSON-configured environment.
//
//   $ ./build/sim_cli --algorithm wayup --workload fig1 --seeds 20
//   $ ./build/sim_cli --algorithm peacock --workload reversal:24
//   $ ./build/sim_cli --algorithm oneshot --workload random:9
//         --config env.json   (flags may be combined freely)
//
// Multi-flow mode drives the concurrent update engine instead: N flows
// over a shared switch pool, admitted under the chosen policy.
//
//   $ ./build/sim_cli --flows 256 --switches 60
//         --admission conflict_aware --max-in-flight 256
//         --batch-mode adaptive
//
// Serve mode runs the open-loop service (core/service.hpp): Poisson
// arrivals against a template pool, bounded pending queue, live JSON
// snapshots on stdout and a final stats document.
//
//   $ ./build/sim_cli --serve --rate 5000 --duration-ms 2000
//   $ ./build/sim_cli --serve --target 100000 --max-pending 256
//         --config service.json
//
// Workloads: fig1 | reversal:<n> | random:<seed>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsu/core/config.hpp"
#include "tsu/core/experiment.hpp"
#include "tsu/rest/service_json.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/strings.hpp"

namespace {

// The seed list and the sweep's percentile samples take 16 B per seed, so
// the bound keeps a sweep under 16 MB.
constexpr std::int64_t kMaxSeeds = 1'000'000;

void usage() {
  std::fprintf(stderr,
               "usage: sim_cli [--algorithm NAME] [--workload SPEC]\n"
               "               [--seeds N] [--config FILE.json] [--serve]\n"
               "               [KNOB FLAGS]\n"
               "  algorithms: oneshot twophase wayup peacock slf-greedy "
               "secure optimal\n"
               "  workloads : fig1 | reversal:<n> | random:<seed>\n"
               "  --seeds N (1 to 1000000, default 10) sweeps the planned\n"
               "  schedule over seeds seed .. seed + N - 1\n"
               "  --flows above 1 runs the concurrent multi-flow engine\n"
               "  instead: peacock-planned flows on a shared pool of\n"
               "  --switches switches (default 6 per flow)\n"
               "  --serve runs the open-loop service: Poisson arrivals over\n"
               "  --flows templates until --duration-ms or --target, served\n"
               "  in arrival order; live snapshots (every 100 ms unless\n"
               "  snapshot_interval_ms is set) and the final stats print as\n"
               "  JSON, and a --config file may carry a \"service\" block\n"
               "Knob flags set the config knob in parentheses as its JSON\n"
               "key does, with the same bound, and win over --config:\n"
               "%s",
               tsu::core::knob_flag_usage().c_str());
}

// Multi-flow mode: N peacock-planned flows over a shared switch pool,
// executed concurrently under the configured admission policy.
int run_multiflow(std::size_t flows, std::size_t switches,
                  tsu::core::ExecutorConfig config) {
  using namespace tsu;
  Result<topo::PlannedPoolWorkload> workload =
      topo::planned_pool_workload(flows, switches);
  if (!workload.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 workload.error().to_string().c_str());
    return 1;
  }
  const topo::PlannedPoolWorkload w = std::move(workload).value();

  std::printf("flows    : %zu over %zu switches\n", flows, switches);
  std::printf("admission: %s, max_in_flight %zu/shard, "
              "batch_mode %s (window %.2f ms, budget %zu B)\n",
              controller::to_string(config.controller.admission),
              config.controller.max_in_flight,
              controller::to_string(config.controller.batch_mode),
              sim::to_ms(config.controller.batch_window),
              config.controller.batch_bytes);
  std::printf("shards   : %zu (%s partition, %s exec)%s\n",
              config.controller.shards,
              topo::to_string(config.controller.partition),
              sim::to_string(config.controller.exec),
              config.switch_config.batch_replies ? ", reply batching on"
                                                 : "");

  const Result<core::MultiFlowExecutionResult> run =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  if (!run.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const core::MultiFlowExecutionResult& result = run.value();
  std::printf("makespan : %.2f ms (max %zu in flight)\n",
              result.makespan_ms(), result.max_in_flight_observed);
  std::printf("admission: %llu conflict edges, %llu blocked submissions\n",
              static_cast<unsigned long long>(result.conflict_edges),
              static_cast<unsigned long long>(result.blocked_submissions));
  std::printf("frames   : %zu (%zu logical messages)\n", result.frames_sent,
              result.messages_sent);
  std::printf("batching : %zu batches (%zu coalesced), %zu timer / %zu "
              "budget flushes, max hold %.3f ms\n",
              result.batching.batches_sent,
              result.batching.messages_coalesced,
              result.batching.timer_flushes, result.batching.budget_flushes,
              result.batching.max_hold_ms());
  if (result.sharding.shards > 1) {
    std::printf("sharding : %zu cross-shard updates, %zu rounds synced, "
                "%.3f ms sync overhead, cut weight %zu\n",
                result.sharding.cross_shard_updates,
                result.sharding.rounds_synced,
                result.sharding.sync_overhead_ms(),
                result.sharding.partition_cut_weight);
    if (result.sharding.exec == sim::ExecMode::kParallel)
      std::printf("parallel : %zu epochs, %zu horizon stalls, %zu threads, "
                  "%.1f ms wall\n",
                  result.sharding.parallel_epochs,
                  result.sharding.horizon_stalls, result.sharding.threads,
                  result.sharding.wall_ms);
  }
  std::printf("traffic  : %zu packets, %zu bypassed, %zu looped, "
              "%zu blackholed\n",
              result.aggregate.total, result.aggregate.bypassed,
              result.aggregate.looped, result.aggregate.blackholed);
  if (!config.faults.empty()) {
    const sim::FaultStats& f = result.faults;
    std::printf("faults   : %zu crashes, %zu link downs, %zu blackholes, "
                "%zu frames lost\n",
                f.crashes, f.link_downs, f.blackholes, f.frames_lost);
    std::printf("recovery : %zu timeouts, %zu resyncs (%zu frames), "
                "%zu retries, %zu rollbacks (%zu resubmitted), "
                "p50 %.2f ms p99 %.2f ms\n",
                f.timeouts, f.resyncs, f.resync_frames, f.retries,
                f.rollbacks, f.resubmissions, f.recovery_p50_ms(),
                f.recovery_p99_ms());
  }
  return 0;
}

// Serve mode: open-loop service with live JSON snapshots on stdout.
int run_service(tsu::core::ServiceConfig config) {
  using namespace tsu;
  if (config.snapshot_interval == 0)
    config.snapshot_interval = sim::milliseconds(100);
  std::printf("service  : %s\n",
              json::write(core::service_config_to_json(config)).c_str());
  config.on_snapshot = [](const core::ServiceSnapshot& snapshot) {
    std::printf("snapshot : %s\n", rest::to_json(snapshot).c_str());
  };
  const Result<core::ServiceResult> run = core::execute_service(config);
  if (!run.ok()) {
    std::fprintf(stderr, "service failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  std::printf("result   : %s\n", rest::to_json(run.value()).c_str());
  return 0;
}

std::optional<tsu::update::Instance> make_workload(const std::string& spec) {
  using namespace tsu;
  if (spec == "fig1") return topo::fig1().instance;
  if (starts_with(spec, "reversal:")) {
    const auto n = parse_int(spec.substr(9));
    if (!n.has_value() || *n < 4 || *n > 128) return std::nullopt;
    return topo::reversal_instance(static_cast<std::size_t>(*n));
  }
  if (starts_with(spec, "random:")) {
    const auto seed = parse_int(spec.substr(7));
    if (!seed.has_value() || *seed < 0) return std::nullopt;
    Rng rng(static_cast<std::uint64_t>(*seed));
    return topo::random_instance(rng, topo::RandomInstanceOptions{});
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsu;

  std::string algorithm_name = "wayup";
  std::string workload = "fig1";
  std::size_t seeds = 10;
  bool serve = false;
  // The config file and the knob flags apply after the loop: --serve
  // selects the document parser, and flags win over the file whatever the
  // argument order.
  std::optional<std::string> config_text;
  std::vector<std::pair<std::string_view, const char*>> knob_flags;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--algorithm") {
      const char* v = next();
      if (v == nullptr) return usage(), 1;
      algorithm_name = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return usage(), 1;
      workload = v;
    } else if (arg == "--seeds") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1 || *n > kMaxSeeds) return usage(), 1;
      seeds = static_cast<std::size_t>(*n);
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage(), 1;
      std::ifstream file(v);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", v);
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      config_text = buffer.str();
    } else {
      const std::vector<core::Knob>& knobs = core::knobs();
      const auto knob = std::find_if(
          knobs.begin(), knobs.end(), [&](const core::Knob& k) {
            return k.flag != nullptr && arg == k.flag;
          });
      if (knob == knobs.end()) {
        usage();
        return arg == "--help" ? 0 : 1;
      }
      // A bool knob's flag stands alone and sets true.
      const char* v = knob->unit == core::Knob::Unit::kBool ? "true" : next();
      if (v == nullptr) return usage(), 1;
      knob_flags.emplace_back(arg, v);
    }
  }

  core::ServiceConfig service;
  if (config_text.has_value()) {
    const std::string_view text(*config_text);
    Status parsed;
    if (serve) {
      Result<core::ServiceConfig> doc = core::service_config_from_json(text);
      if (doc.ok()) service = std::move(doc).value();
      else parsed = doc.error();
    } else {
      Result<core::ExecutorConfig> doc = core::config_from_json(text);
      if (doc.ok()) service.exec = std::move(doc).value();
      else parsed = doc.error();
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad config: %s\n",
                   parsed.error().to_string().c_str());
      return 1;
    }
  }
  if (!serve) {
    // Without --serve, --flows counts closed-loop flows (one: the seed
    // sweep below) and --switches sizes their pool (0: 6 per flow).
    service.flows = 1;
    service.pool_switches = 0;
  }
  for (const auto& [flag, value] : knob_flags) {
    if (const Status set = core::set_knob_flag(service, flag, value);
        !set.ok()) {
      std::fprintf(stderr, "bad %s: %s\n", std::string(flag).c_str(),
                   set.error().to_string().c_str());
      return 1;
    }
  }

  if (serve) return run_service(std::move(service));
  const core::ExecutorConfig& config = service.exec;
  if (service.flows > 1) {
    return run_multiflow(service.flows,
                         service.pool_switches != 0 ? service.pool_switches
                                                    : service.flows * 6,
                         config);
  }

  const auto algorithm = core::algorithm_from_string(algorithm_name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm_name.c_str());
    return 1;
  }
  const std::optional<update::Instance> instance = make_workload(workload);
  if (!instance.has_value()) {
    std::fprintf(stderr, "bad workload '%s'\n", workload.c_str());
    return 1;
  }

  std::printf("instance : %s\n", instance->to_string().c_str());
  std::printf("config   : %s\n",
              json::write(core::config_to_json(config)).c_str());

  core::PlannerOptions plan_options;
  plan_options.verify = true;
  Result<core::PlanOutcome> planned =
      core::plan(*instance, *algorithm, plan_options);
  if (!planned.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 planned.error().to_string().c_str());
    return 1;
  }
  std::printf("schedule : %s\n", planned.value().schedule.to_string().c_str());
  std::printf("verified : %s\n", planned.value().report->to_string().c_str());

  std::vector<std::uint64_t> seed_list(seeds);
  for (std::size_t i = 0; i < seeds; ++i) seed_list[i] = config.seed + i;
  Result<core::SeedSweep> sweep = core::sweep_seeds(
      *instance, planned.value().schedule, config, seed_list);
  if (!sweep.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 sweep.error().to_string().c_str());
    return 1;
  }
  const core::SeedSweep& s = sweep.value();
  std::printf("runs     : %zu\n", s.runs);
  std::printf("update   : mean %.2f ms  p95 %.2f ms  max %.2f ms\n",
              s.update_ms.mean(), s.update_ms_pct.p95(), s.update_ms.max());
  std::printf("traffic  : delivered %.1f/run, bypassed %.1f/run (%zu runs), "
              "looped %.1f/run (%zu runs), dropped %.1f/run (%zu runs)\n",
              s.delivered.mean(), s.bypassed.mean(), s.runs_with_bypass,
              s.looped.mean(), s.runs_with_loop, s.blackholed.mean(),
              s.runs_with_drop);
  return 0;
}
