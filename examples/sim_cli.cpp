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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "tsu/core/config.hpp"
#include "tsu/core/experiment.hpp"
#include "tsu/rest/service_json.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/strings.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: sim_cli [--algorithm NAME] [--workload SPEC]\n"
               "               [--seeds N] [--config FILE.json]\n"
               "               [--flows N] [--switches S]\n"
               "               [--admission blind|conflict_aware]\n"
               "               [--max-in-flight K]\n"
               "               [--batch-mode off|adaptive]\n"
               "               [--batch-window-ms MS] [--batch-bytes N]\n"
               "               [--batch-replies]\n"
               "               [--shards N]\n"
               "               [--partition hash|block|greedy_cut]\n"
               "               [--exec sequential|parallel] [--threads N]\n"
               "               [--faults FILE.json] [--liveness-ms MS]\n"
               "               [--failure-response wait|rollback]\n"
               "               [--serve] [--rate R] [--duration-ms MS]\n"
               "               [--target N] [--max-pending N]\n"
               "  algorithms: oneshot twophase wayup peacock slf-greedy "
               "secure optimal\n"
               "  workloads : fig1 | reversal:<n> | random:<seed>\n"
               "  --flows >1 runs the concurrent multi-flow engine on a\n"
               "  shared pool of --switches switches (default 6 per flow)\n"
               "  --max-in-flight 1 is the paper's serializing queue\n"
               "  --batch-mode adaptive holds a per-switch outbox to pack\n"
               "  cross-flow frames, up to the window (or byte budget) as\n"
               "  the queue fills and not at all when idle;\n"
               "  --batch-replies coalesces same-instant\n"
               "  switch->controller replies too\n"
               "  --shards N partitions the switches across N controller\n"
               "  shards (hash scatters NodeIds, block keeps contiguous\n"
               "  ranges shard-local, greedy_cut packs switches that share\n"
               "  updates onto one shard to minimize the cross-shard cut);\n"
               "  cross-shard updates synchronize round-by-round through\n"
               "  the shard coordinator. --exec parallel steps independent\n"
               "  shards on --threads workers (0 = auto) between safe\n"
               "  horizons - bit-identical results, less wall-clock\n"
               "  --faults replays a serialized FaultSchedule (switch\n"
               "  crashes, control-link outages, frame blackholes) against\n"
               "  the run; --liveness-ms sets the controller's detection\n"
               "  timeout and --failure-response picks retry vs rollback\n"
               "  --serve runs the open-loop service: Poisson arrivals at\n"
               "  --rate req/s (at most 1e9) over --flows templates on\n"
               "  --switches pool switches until --duration-ms of sim time\n"
               "  or --target accepted requests (one is required), served\n"
               "  in arrival order; arrivals beyond the --max-pending\n"
               "  backlog are shed; live snapshots and the final stats\n"
               "  print as JSON, and a --config file may carry a\n"
               "  \"service\" block for the full schema (snapshot cadence)\n");
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
                  "%zu overflow posts, %.1f ms wall\n",
                  result.sharding.parallel_epochs,
                  result.sharding.horizon_stalls, result.sharding.threads,
                  result.sharding.overflow_posts, result.sharding.wall_ms);
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
  std::printf("service  : %s\n",
              json::write(core::service_config_to_json(config)).c_str());
  if (config.snapshot_interval == 0)
    config.snapshot_interval = sim::milliseconds(100);
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
  std::size_t flows = 1;
  std::size_t switches = 0;  // 0: sized from --flows (6 per flow)
  core::ExecutorConfig config;
  // Controller flags are collected separately and applied after the loop,
  // so they win over a --config file regardless of argument order.
  std::optional<controller::AdmissionPolicy> admission_flag;
  std::optional<std::size_t> max_in_flight_flag;
  std::optional<controller::BatchMode> batch_mode_flag;
  std::optional<double> batch_window_ms_flag;
  std::optional<std::size_t> batch_bytes_flag;
  bool batch_replies_flag = false;
  std::optional<std::size_t> shards_flag;
  std::optional<topo::PartitionScheme> partition_flag;
  std::optional<sim::ExecMode> exec_flag;
  std::optional<std::size_t> threads_flag;
  std::optional<sim::FaultSchedule> faults_flag;
  std::optional<double> liveness_ms_flag;
  std::optional<controller::FailureResponse> failure_response_flag;
  bool serve = false;
  bool switches_set = false;
  std::optional<double> rate_flag;
  std::optional<double> duration_ms_flag;
  std::optional<std::uint64_t> target_flag;
  std::optional<std::size_t> max_pending_flag;
  // The config file is parsed after the loop: --serve selects the service
  // document parser (which accepts the "service" block).
  std::optional<std::string> config_text;

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
      if (!n.has_value() || *n < 1) return usage(), 1;
      seeds = static_cast<std::size_t>(*n);
    } else if (arg == "--flows") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1) return usage(), 1;
      flows = static_cast<std::size_t>(*n);
    } else if (arg == "--switches") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 6) return usage(), 1;
      switches = static_cast<std::size_t>(*n);
      switches_set = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--rate") {
      const char* v = next();
      char* endp = nullptr;
      const double rate = v != nullptr ? std::strtod(v, &endp) : -1;
      if (v == nullptr || endp == v || !(rate > 0) ||
          rate > core::kMaxArrivalRate)
        return usage(), 1;
      rate_flag = rate;
    } else if (arg == "--duration-ms") {
      const char* v = next();
      char* endp = nullptr;
      const double ms = v != nullptr ? std::strtod(v, &endp) : -1;
      if (v == nullptr || endp == v || ms <= 0) return usage(), 1;
      duration_ms_flag = ms;
    } else if (arg == "--target") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1) return usage(), 1;
      target_flag = static_cast<std::uint64_t>(*n);
    } else if (arg == "--max-pending") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1) return usage(), 1;
      max_pending_flag = static_cast<std::size_t>(*n);
    } else if (arg == "--admission") {
      const char* v = next();
      const auto policy = v != nullptr
                              ? controller::admission_policy_from_string(v)
                              : std::nullopt;
      if (!policy.has_value()) return usage(), 1;
      admission_flag = *policy;
    } else if (arg == "--max-in-flight") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1) return usage(), 1;
      max_in_flight_flag = static_cast<std::size_t>(*n);
    } else if (arg == "--batch-mode") {
      const char* v = next();
      const auto mode =
          v != nullptr ? controller::batch_mode_from_string(v) : std::nullopt;
      if (!mode.has_value()) return usage(), 1;
      batch_mode_flag = *mode;
    } else if (arg == "--batch-window-ms") {
      const char* v = next();
      char* endp = nullptr;
      const double ms = v != nullptr ? std::strtod(v, &endp) : -1;
      if (v == nullptr || endp == v || ms < 0) return usage(), 1;
      batch_window_ms_flag = ms;
    } else if (arg == "--batch-bytes") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1) return usage(), 1;
      batch_bytes_flag = static_cast<std::size_t>(*n);
    } else if (arg == "--batch-replies") {
      batch_replies_flag = true;
    } else if (arg == "--shards") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 1 ||
          *n > static_cast<std::int64_t>(proto::kMaxXidShards))
        return usage(), 1;
      shards_flag = static_cast<std::size_t>(*n);
    } else if (arg == "--partition") {
      const char* v = next();
      const auto scheme =
          v != nullptr ? topo::partition_scheme_from_string(v) : std::nullopt;
      if (!scheme.has_value()) return usage(), 1;
      partition_flag = *scheme;
    } else if (arg == "--exec") {
      const char* v = next();
      const auto mode =
          v != nullptr ? sim::exec_mode_from_string(v) : std::nullopt;
      if (!mode.has_value()) return usage(), 1;
      exec_flag = *mode;
    } else if (arg == "--threads") {
      const char* v = next();
      const auto n = v != nullptr ? parse_int(v) : std::nullopt;
      if (!n.has_value() || *n < 0) return usage(), 1;
      threads_flag = static_cast<std::size_t>(*n);
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return usage(), 1;
      std::ifstream file(v);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", v);
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      const std::string text = buffer.str();
      Result<sim::FaultSchedule> schedule =
          sim::FaultSchedule::from_json(std::string_view(text));
      if (!schedule.ok()) {
        std::fprintf(stderr, "bad fault schedule: %s\n",
                     schedule.error().to_string().c_str());
        return 1;
      }
      faults_flag = std::move(schedule).value();
    } else if (arg == "--liveness-ms") {
      const char* v = next();
      char* endp = nullptr;
      const double ms = v != nullptr ? std::strtod(v, &endp) : -1;
      if (v == nullptr || endp == v || ms < 0) return usage(), 1;
      liveness_ms_flag = ms;
    } else if (arg == "--failure-response") {
      const char* v = next();
      const auto response =
          v != nullptr ? controller::failure_response_from_string(v)
                       : std::nullopt;
      if (!response.has_value()) return usage(), 1;
      failure_response_flag = *response;
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
      usage();
      return arg == "--help" ? 0 : 1;
    }
  }

  core::ServiceConfig service;
  if (config_text.has_value()) {
    if (serve) {
      Result<core::ServiceConfig> parsed =
          core::service_config_from_json(std::string_view(*config_text));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad config: %s\n",
                     parsed.error().to_string().c_str());
        return 1;
      }
      service = std::move(parsed).value();
      config = service.exec;
    } else {
      Result<core::ExecutorConfig> parsed =
          core::config_from_json(std::string_view(*config_text));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad config: %s\n",
                     parsed.error().to_string().c_str());
        return 1;
      }
      config = parsed.value();
    }
  }

  if (admission_flag.has_value())
    config.controller.admission = *admission_flag;
  if (max_in_flight_flag.has_value())
    config.controller.max_in_flight = *max_in_flight_flag;
  if (batch_mode_flag.has_value())
    config.controller.batch_mode = *batch_mode_flag;
  if (batch_window_ms_flag.has_value())
    config.controller.batch_window = sim::from_ms(*batch_window_ms_flag);
  if (batch_bytes_flag.has_value())
    config.controller.batch_bytes = *batch_bytes_flag;
  if (batch_replies_flag) config.switch_config.batch_replies = true;
  if (shards_flag.has_value()) config.controller.shards = *shards_flag;
  if (partition_flag.has_value())
    config.controller.partition = *partition_flag;
  if (exec_flag.has_value()) config.controller.exec = *exec_flag;
  if (threads_flag.has_value()) config.controller.threads = *threads_flag;
  if (faults_flag.has_value()) config.faults = std::move(*faults_flag);
  if (liveness_ms_flag.has_value())
    config.controller.liveness_timeout = sim::from_ms(*liveness_ms_flag);
  if (failure_response_flag.has_value())
    config.controller.failure_response = *failure_response_flag;

  if (serve) {
    service.exec = config;
    if (flows > 1) service.flows = flows;
    if (switches_set) service.pool_switches = switches;
    if (rate_flag.has_value()) service.arrival_rate_per_sec = *rate_flag;
    if (duration_ms_flag.has_value())
      service.horizon = sim::from_ms(*duration_ms_flag);
    if (target_flag.has_value()) service.target_completions = *target_flag;
    if (max_pending_flag.has_value()) service.max_pending = *max_pending_flag;
    return run_service(std::move(service));
  }

  if (flows > 1) {
    if (switches == 0) switches = flows * 6;
    return run_multiflow(flows, switches, config);
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
