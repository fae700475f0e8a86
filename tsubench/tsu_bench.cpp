// tsu_bench: the end-to-end benchmark of the update engine, one workload
// per process (see README.md for the workloads, metrics and bounds).
//
//   tsu_bench --workload W --seed S --seconds T --out RESULTS.json
//             [--trace TRACE.json] [--quick]
//
// Every input is generated here from --seed; the library only receives the
// generated instances and configs. Load comes from this one thread as a
// closed loop (the next op starts when the previous returns); inside
// serve_steady the modeled arrivals are an open-loop Poisson process in sim
// time. sharded_par is the only workload that starts a worker thread: it
// steps its shards on 2 lanes, this thread and one worker.
//
// Untraced, the binary runs ops back to back for --seconds, runs set-up
// once before them and 20 more times spread among them (the median is
// setup_s), and reports the end-to-end metrics. With
// --trace it runs each of a fixed set of ops twice, untraced and traced,
// records a span around every call from this file into the library,
// replays each layer on the workload's own requests, frames and FlowMods,
// reports the per-layer metrics and writes the spans as Chrome trace-event
// JSON.
//
// Sim-time ("model") metrics are computed over the first model_ops() ops,
// which every run executes, so they are a pure function of the seed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/admission.hpp"
#include "tsu/controller/plan_cache.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/core/service.hpp"
#include "tsu/json/json.hpp"
#include "tsu/proto/apply.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/checker.hpp"

#ifndef TSU_BENCH_CXX_FLAGS
#define TSU_BENCH_CXX_FLAGS "unknown"
#endif

namespace tsu::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
};

// Spans go into a buffer reserved up front; a full buffer drops further
// spans (counted) instead of reallocating mid-measurement.
class Tracer {
 public:
  void reserve(std::size_t capacity) {
    spans_.reserve(capacity);
    stack_.reserve(64);
    epoch_ = Clock::now();
  }
  void set_on(bool on) noexcept { on_ = on; }
  bool on() const noexcept { return on_; }

  std::int32_t begin(const char* name, std::uint32_t op) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span span;
    span.name = name;
    span.op = op;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    spans_.push_back(span);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }

  // Durations (ns) of every finished span called `name`.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.end_ns >= 0 && name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool on_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::size_t dropped_ = 0;
};

Tracer g_tracer;

class SpanScope {
 public:
  SpanScope(const char* name, std::uint32_t op)
      : id_(g_tracer.on() ? g_tracer.begin(name, op) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) g_tracer.end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t id_;
};

// Calls `f` inside a span; the result passes through.
template <typename F>
auto traced(const char* name, std::uint32_t op, F&& f) {
  SpanScope span(name, op);
  return f();
}

// ------------------------------------------------------------ CPU choice

// On a shared VM each vCPU alternates, over seconds, between full speed and
// about 1.5x slower as host neighbours come and go. Between ops the client
// times a short fixed loop on every CPU it may use and pins itself - and so
// the worker threads an op starts - to the fastest `lanes` of them, at most
// every 250 ms. Ops then run on an uncontended CPU whenever one exists.
class CpuPicker {
 public:
  explicit CpuPicker(std::size_t lanes) : lanes_(lanes), buf_(1 << 15) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) allowed_.push_back(cpu);
  }

  void repick() {
    if (allowed_.size() <= lanes_) return;
    std::vector<std::pair<double, int>> speed;
    for (const int cpu : allowed_) {
      pin({cpu});
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) best = std::min(best, probe_ns());
      speed.emplace_back(best, cpu);
    }
    std::sort(speed.begin(), speed.end());
    std::vector<int> fastest;
    for (std::size_t k = 0; k < lanes_; ++k) fastest.push_back(speed[k].second);
    pin(fastest);
    last_ = Clock::now();
  }
  void maybe_repick() {
    if (Clock::now() - last_ >= std::chrono::milliseconds(250)) repick();
  }

 private:
  static void pin(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  // About 0.1 ms of integer work and random read-modify-writes over 256 KiB.
  double probe_ns() {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 60000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buf_[x & (buf_.size() - 1)] += x;
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  }

  std::size_t lanes_;
  std::vector<std::uint64_t> buf_;
  std::vector<int> allowed_;
  Clock::time_point last_;
};

// --------------------------------------------------------------- metrics

void put(json::Object& metrics, std::string name, double value,
         const char* unit) {
  json::Object m;
  m.set("value", json::Value(value));
  m.set("unit", json::Value(unit));
  metrics.set(std::move(name), json::Value(std::move(m)));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  stats::Percentiles p;
  p.add_all(values);
  return p.quantile(q);
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------- layer replays

// Op id the replay spans carry, apart from every real op's.
constexpr std::uint32_t kReplayOp = 0xffffffff;

// What a workload hands the layer replays: its own requests (instance +
// schedule pairs), the order and window in which it submits them to
// admission, and how many events it keeps pending at once.
struct ReplayInput {
  std::vector<const update::Instance*> instances;
  std::vector<const update::Schedule*> schedules;
  std::vector<std::size_t> admission_order;  // indexes into instances
  std::size_t admission_window = 1;
  std::size_t queue_depth = 1;
};

// Wall cost of one unit of work per layer, measured by replaying that
// layer's library calls on the workload's own inputs.
struct LayerCosts {
  double compile_ns = 0;   // request_from_schedule + compile_plan
  double lookup_ns = 0;    // PlanCache::lookup
  double submit_ns = 0;    // AdmissionQueue::submit
  double release_ns = 0;   // AdmissionQueue::release
  double edges_per_update = 0;
  double blocked_frac = 0;
  double encode_ns = 0;    // proto::encode_into, per message
  double decode_ns = 0;    // proto::decode, per frame
  double roundtrip_ns = 0; // ControlChannel::send_encoded -> delivery
  double apply_ns = 0;     // proto::apply_flow_mod, per FlowMod
  double queue_ns = 0;     // EventQueue push + pop
  double bytes_per_update = 0;
};

controller::UpdateRequest lower(const ReplayInput& in, std::size_t i) {
  return controller::request_from_schedule(
      *in.instances[i], *in.schedules[i], static_cast<FlowId>(i + 1), 100, 0);
}

LayerCosts replay_layers(const ReplayInput& in, std::uint64_t seed,
                         std::uint32_t op) {
  LayerCosts c;
  const std::size_t n = in.instances.size();
  std::size_t sink = 0;

  std::vector<std::shared_ptr<const controller::CompiledPlan>> plans(n);
  {
    SpanScope span("replay.controller.compile_plan", op);
    const std::size_t reps = std::max<std::size_t>(1, 4000 / n);
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (std::size_t i = 0; i < n; ++i)
        plans[i] = controller::compile_plan(lower(in, i), 0);
    c.compile_ns = ms_between(t0, Clock::now()) * 1e6 /
                   static_cast<double>(reps * n);
  }
  {
    SpanScope span("replay.controller.plan_cache.lookup", op);
    controller::PlanCache cache;
    for (std::size_t i = 0; i < n; ++i) cache.store(i, plans[i]);
    const std::size_t reps = std::max<std::size_t>(1, 400000 / n);
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (std::size_t i = 0; i < n; ++i)
        sink += cache.lookup(i, 0)->touched.size();
    c.lookup_ns = ms_between(t0, Clock::now()) * 1e6 /
                  static_cast<double>(reps * n);
  }
  {
    // Chunks of `admission_window` footprints enter the DAG together and
    // leave together, so every submit sees the workload's live set.
    SpanScope span("replay.controller.admission", op);
    controller::AdmissionQueue queue(
        controller::AdmissionPolicy::kConflictAware);
    const std::vector<std::size_t>& order = in.admission_order;
    double submit_ms = 0;
    double release_ms = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += in.admission_window) {
      const std::size_t end =
          std::min(order.size(), begin + in.admission_window);
      auto t0 = Clock::now();
      for (std::size_t k = begin; k < end; ++k)
        sink += queue.submit(k, plans[order[k]]->footprint) ? 1 : 0;
      auto t1 = Clock::now();
      for (std::size_t k = begin; k < end; ++k)
        sink += queue.release(k).size();
      auto t2 = Clock::now();
      submit_ms += ms_between(t0, t1);
      release_ms += ms_between(t1, t2);
    }
    const auto submissions = static_cast<double>(order.size());
    c.submit_ns = submit_ms * 1e6 / submissions;
    c.release_ns = release_ms * 1e6 / submissions;
    c.edges_per_update =
        static_cast<double>(queue.conflict_edges()) / submissions;
    c.blocked_frac =
        static_cast<double>(queue.blocked_submissions()) / submissions;
  }

  // The workload's wire traffic towards the switches: every FlowMod, plus
  // one barrier per switch per round.
  std::vector<proto::Message> messages;
  for (std::size_t i = 0; i < n; ++i)
    for (const std::vector<controller::RoundOp>& round :
         plans[i]->request.rounds) {
      std::vector<NodeId> barriers;
      for (const controller::RoundOp& rop : round) {
        messages.push_back(proto::make_flow_mod(
            static_cast<Xid>(messages.size() + 1), rop.mod));
        if (std::find(barriers.begin(), barriers.end(), rop.node) ==
            barriers.end())
          barriers.push_back(rop.node);
      }
      for (std::size_t b = 0; b < barriers.size(); ++b)
        messages.push_back(proto::make_barrier_request(
            static_cast<Xid>(messages.size() + 1)));
    }
  std::vector<std::vector<std::byte>> frames(messages.size());
  {
    SpanScope span("replay.proto.encode", op);
    const std::size_t reps = std::max<std::size_t>(1, 200000 / messages.size());
    std::vector<std::byte> scratch;
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (const proto::Message& m : messages) {
        proto::encode_into(m, scratch);
        sink += scratch.size();
      }
    c.encode_ns = ms_between(t0, Clock::now()) * 1e6 /
                  static_cast<double>(reps * messages.size());
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < messages.size(); ++k) {
      frames[k] = proto::encode(messages[k]);
      bytes += frames[k].size();
    }
    c.bytes_per_update = static_cast<double>(bytes) / static_cast<double>(n);
  }
  {
    SpanScope span("replay.proto.decode", op);
    const std::size_t reps = std::max<std::size_t>(1, 200000 / frames.size());
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (const std::vector<std::byte>& f : frames)
        sink += proto::decode(f).ok() ? 1 : 0;
    c.decode_ns = ms_between(t0, Clock::now()) * 1e6 /
                  static_cast<double>(reps * frames.size());
  }
  {
    SpanScope span("replay.channel.roundtrip", op);
    sim::Simulator simulator;
    channel::ChannelConfig config;
    config.latency = sim::LatencyModel::constant(sim::microseconds(1));
    channel::ControlChannel ch(simulator, config, Rng(seed));
    std::size_t delivered = 0;
    ch.set_receiver([&delivered](const proto::Message&) { ++delivered; });
    const std::size_t reps = std::max<std::size_t>(1, 100000 / frames.size());
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (std::size_t k = 0; k < frames.size(); ++k) {
        ch.send_encoded(frames[k], static_cast<std::uint32_t>(k + 1));
        simulator.run();
      }
    c.roundtrip_ns = ms_between(t0, Clock::now()) * 1e6 /
                     static_cast<double>(reps * frames.size());
    sink += delivered;
  }
  {
    SpanScope span("replay.switchsim.apply_flow_mod", op);
    std::unordered_map<NodeId, std::map<std::uint8_t, flow::FlowTable>> tables;
    for (std::size_t i = 0; i < n; ++i)
      for (const controller::RoundOp& rop : controller::initial_rules(
               *in.instances[i], static_cast<FlowId>(i + 1), 100))
        proto::apply_flow_mod(tables[rop.node], rop.mod);
    std::vector<std::pair<std::map<std::uint8_t, flow::FlowTable>*,
                          const proto::FlowMod*>>
        mods;
    for (std::size_t i = 0; i < n; ++i)
      for (const std::vector<controller::RoundOp>& round :
           plans[i]->request.rounds)
        for (const controller::RoundOp& rop : round)
          mods.emplace_back(&tables[rop.node], &rop.mod);
    const auto t0 = Clock::now();
    for (const auto& [table, mod] : mods) proto::apply_flow_mod(*table, *mod);
    c.apply_ns = ms_between(t0, Clock::now()) * 1e6 /
                 static_cast<double>(std::max<std::size_t>(1, mods.size()));
  }
  {
    SpanScope span("replay.sim.event_queue", op);
    sim::EventQueue queue;
    Rng rng(seed);
    for (std::size_t d = 0; d < in.queue_depth; ++d)
      queue.push(static_cast<sim::SimTime>(rng.uniform_u64(0, 1000000)),
                 [] {});
    constexpr std::size_t kEvents = 400000;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kEvents; ++k) {
      const sim::SimTime at = queue.pop().time;
      queue.push(at + static_cast<sim::SimTime>(rng.uniform_u64(1, 1000000)),
                 [] {});
    }
    c.queue_ns = ms_between(t0, Clock::now()) * 1e6 / kEvents;
  }
  if (sink == 0) std::fprintf(stderr, "replay produced no work\n");
  return c;
}

// Wall ms of the pool workload generator (topo::pool_workload).
double time_pool_generation(std::size_t count, std::size_t switches) {
  SpanScope span("replay.topo.pool_workload", kReplayOp);
  const auto t0 = Clock::now();
  const std::vector<update::Instance> made =
      topo::pool_workload(count, switches);
  const double ms = ms_between(t0, Clock::now());
  if (made.size() != count) std::fprintf(stderr, "short pool workload\n");
  return ms;
}

void put_layer_costs(json::Object& m, const LayerCosts& c) {
  put(m, "controller.compile_us", c.compile_ns / 1e3, "us");
  put(m, "controller.plan_cache.lookup_ns", c.lookup_ns, "ns");
  put(m, "controller.admission.submit_ns", c.submit_ns, "ns");
  put(m, "controller.admission.release_ns", c.release_ns, "ns");
  put(m, "proto.encode_ns", c.encode_ns, "ns");
  put(m, "proto.decode_ns", c.decode_ns, "ns");
  put(m, "proto.bytes_per_update", c.bytes_per_update, "B");
  put(m, "channel.roundtrip_ns", c.roundtrip_ns, "ns");
  put(m, "switchsim.apply_ns", c.apply_ns, "ns");
  put(m, "sim.queue_ns_per_event", c.queue_ns, "ns");
}

// Metrics a workload does not exercise read 0, so every run reports the
// same set of names: the model metrics always, the layer metrics when
// traced.
void put_zero_defaults(json::Object& m, bool layers) {
  put(m, "sim_makespan_ms", 0, "sim_ms");
  put(m, "sim_update_p99_ms", 0, "sim_ms");
  put(m, "sim_wait_p99_ms", 0, "sim_ms");
  put(m, "sim_capacity_per_s", 0, "sim_1/s");
  put(m, "frames_per_update", 0, "frames");
  for (const char* alg : {"wayup", "peacock", "secure"})
    put(m, std::string("update.") + alg + ".no_schedule", 0, "count");
  if (!layers) return;
  for (const char* alg : {"wayup", "peacock", "secure"}) {
    const std::string base = std::string("update.") + alg;
    put(m, base + ".plan_us_p50", 0, "us");
    put(m, base + ".plan_ms_sum", 0, "ms");
  }
  put(m, "verify.check_us_p50", 0, "us");
  put(m, "verify.check_ms_sum", 0, "ms");
  put(m, "verify.states_checked", 0, "count");
  put(m, "verify.ns_per_state", 0, "ns");
  put(m, "update.pool_plan_ms", 0, "ms");
  put(m, "controller.plan_cache.hit_rate", 0, "fraction");
  put(m, "controller.outbox.messages_per_frame", 0, "messages/frame");
  put(m, "controller.outbox.max_hold_ms", 0, "sim_ms");
  put(m, "controller.sync.cross_shard_updates", 0, "count");
  put(m, "controller.sync.overhead_ms", 0, "sim_ms");
  put(m, "sim.events_per_update", 0, "count");
  put(m, "core.ns_per_event", 0, "ns");
  put(m, "sim.sharded.horizon_stalls", 0, "count");
  put(m, "sim.sharded.serial_fraction", 0, "fraction");
  put(m, "sim.sharded.parallel_epochs", 0, "count");
  put(m, "sim.sharded.overflow_posts", 0, "count");
  put(m, "sim.sharded.wall_ms", 0, "ms");
  put(m, "dataplane.packets_per_update", 0, "count");
  put(m, "dataplane.violations", 0, "count");
}

// ------------------------------------------------------------- workloads

class Workload {
 public:
  Workload(std::uint64_t seed, bool quick) : seed_(seed), quick_(quick) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Generates the inputs from the seed and runs one warm-up op. Running it
  // again regenerates the same inputs.
  virtual void setup() = 0;
  // Runs op `i` and checks its outputs. `model` ops also feed the sim-time
  // metrics. Returns the updates the op carried.
  virtual std::uint64_t op(std::size_t i, bool model) = 0;
  // Ops whose sim-time results the model metrics summarize.
  virtual std::size_t model_ops() const = 0;
  // Threads an op runs on.
  virtual std::size_t lanes() const { return 1; }
  // Sim-time metrics plus rounds_per_update, over the model ops.
  virtual void model_metrics(json::Object& m) = 0;
  // Per-layer metrics from the traced run. `untraced_ms` holds the wall
  // time of each model op run untraced.
  virtual void layer_metrics(json::Object& m,
                             const std::vector<double>& untraced_ms) = 0;

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  bool correct() const noexcept { return failed_ == 0 && errors_.empty(); }
  // Runs setup() without counting its warm-up op in attempted and failed;
  // a failure there is still an error.
  void setup_uncounted() {
    const std::uint64_t attempted = attempted_;
    const std::uint64_t failed = failed_;
    setup();
    if (failed_ != failed) error("a warm-up op failed during set-up");
    attempted_ = attempted;
    failed_ = failed;
  }

 protected:
  void error(std::string message) {
    if (errors_.size() < 16) errors_.push_back(std::move(message));
  }

  std::uint64_t seed_;
  bool quick_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

 private:
  std::vector<std::string> errors_;
};

// plan_verify: the paper's planners and the transient-state checker, no
// simulated control plane. One op plans one instance of each interior size
// with WayUp, Peacock and secure, then verifies every returned schedule.
// (One instance per op would put the op-time median in the gap between two
// size classes, where it jumps with the mix.)
class PlanVerify final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    const auto t0 = Clock::now();
    pool_.clear();
    const std::size_t count = (quick_ ? 1000 : kPoolOps) * kSizes.size();
    pool_.reserve(count);
    Rng rng(seed_);
    for (std::size_t i = 0; i < count; ++i) {
      topo::RandomInstanceOptions options;
      options.old_interior_min = options.old_interior_max =
          kSizes[i % kSizes.size()];
      options.new_len_min = options.new_len_max = kSizes[i % kSizes.size()];
      options.reuse_probability = 0.7;
      options.with_waypoint = true;
      pool_.push_back(topo::random_instance(rng, options));
    }
    gen_ms_ = ms_between(t0, Clock::now());
    // The warm-up plans only the first, smallest instance: a whole op may
    // hold a proof that costs 1000x the median and would make setup_s
    // depend on the seed.
    plan_and_verify(pool_[0], 0, false);
  }

  std::uint64_t op(std::size_t i, bool model) override {
    const auto op_index = static_cast<std::uint32_t>(i);
    SpanScope op_span("op.plan_verify", op_index);
    for (std::size_t s = 0; s < kSizes.size(); ++s)
      plan_and_verify(pool_[(i * kSizes.size() + s) % pool_.size()], op_index,
                      model);
    return kSizes.size();
  }

  std::size_t model_ops() const override { return quick_ ? 300 : 4000; }

  void model_metrics(json::Object& m) override {
    put(m, "rounds_per_update",
        ratio(static_cast<double>(rounds_), static_cast<double>(schedules_)),
        "rounds");
    for (std::size_t k = 0; k < kAlgorithms.size(); ++k)
      put(m,
          std::string("update.") + core::to_string(kAlgorithms[k]) +
              ".no_schedule",
          static_cast<double>(no_schedule_[k]), "count");
  }

  void layer_metrics(json::Object& m,
                     const std::vector<double>& untraced_ms) override {
    (void)untraced_ms;
    double covered_ns = 0;
    for (std::size_t k = 0; k < kAlgorithms.size(); ++k) {
      const std::vector<double> ns = g_tracer.durations(kPlanSpans[k]);
      covered_ns += sum(ns);
      const std::string base =
          std::string("update.") + core::to_string(kAlgorithms[k]);
      put(m, base + ".plan_us_p50", quantile(ns, 0.5) / 1e3, "us");
      put(m, base + ".plan_ms_sum", sum(ns) / 1e6, "ms");
    }
    const std::vector<double> check_ns = g_tracer.durations("verify.check");
    covered_ns += sum(check_ns);
    put(m, "verify.check_us_p50", quantile(check_ns, 0.5) / 1e3, "us");
    put(m, "verify.check_ms_sum", sum(check_ns) / 1e6, "ms");
    put(m, "verify.states_checked", static_cast<double>(states_), "count");
    put(m, "verify.ns_per_state",
        ratio(sum(check_ns), static_cast<double>(states_)), "ns");
    // The spans cover the op directly: the residual is the op time outside
    // every planner and checker call.
    const double op_ns = sum(g_tracer.durations("op.plan_verify"));
    put(m, "attr.residual_frac", 1.0 - ratio(covered_ns, op_ns), "fraction");

    // The engine layers replay the WayUp schedules of the first instances.
    std::vector<update::Schedule> schedules;
    schedules.reserve(kReplayRequests);
    ReplayInput in;
    for (std::size_t i = 0; i < kReplayRequests && i < pool_.size(); ++i) {
      Result<update::Schedule> s = update::plan_wayup(pool_[i]);
      if (!s.ok()) continue;
      schedules.push_back(std::move(s).value());
      in.instances.push_back(&pool_[i]);
      in.admission_order.push_back(in.admission_order.size());
    }
    for (const update::Schedule& s : schedules) in.schedules.push_back(&s);
    in.admission_window = in.instances.size();
    const LayerCosts costs = replay_layers(in, seed_, kReplayOp);
    put_layer_costs(m, costs);
    put(m, "topo.instance_gen_ms", gen_ms_, "ms");
    put(m, "controller.admission.edges_per_update", costs.edges_per_update,
        "count");
    put(m, "controller.admission.blocked_frac", costs.blocked_frac,
        "fraction");
  }

 private:
  // Interior sizes, one instance of each per op. Every instance touches at
  // most 9 switches, below secure's default search_node_limit (14), so
  // secure decides every instance exactly and its kExhausted is always a
  // proof of infeasibility. The proofs are the heavy tail (up to ~1000x the
  // median op). Larger sizes make single proofs so long that a 12-s run
  // holds too few of them for a steady throughput: a size-10 proof takes up
  // to 0.3 s, a size-12 one seconds, and from size 14 on secure gives up.
  static constexpr std::array<std::size_t, 3> kSizes = {4, 6, 8};
  // Distinct ops in the pool; a run wraps around after this many.
  static constexpr std::size_t kPoolOps = 12000;
  static constexpr std::array<core::Algorithm, 3> kAlgorithms = {
      core::Algorithm::kWayUp, core::Algorithm::kPeacock,
      core::Algorithm::kSecure};
  static constexpr std::array<const char*, 3> kPlanSpans = {
      "update.wayup.plan", "update.peacock.plan", "update.secure.plan"};
  static constexpr std::size_t kReplayRequests = 1000;

  void plan_and_verify(const update::Instance& inst, std::uint32_t op_index,
                       bool model) {
    for (std::size_t k = 0; k < kAlgorithms.size(); ++k) {
      const core::Algorithm alg = kAlgorithms[k];
      ++attempted_;
      const Result<core::PlanOutcome> planned = traced(
          kPlanSpans[k], op_index, [&] { return core::plan(inst, alg, options_); });
      if (!planned.ok()) {
        // Secure proving an instance infeasible is a verdict, not a
        // failure. It proves it only when its exact search may cover every
        // touched switch; past search_node_limit kExhausted means it gave
        // up, which counts as a failure.
        if (alg == core::Algorithm::kSecure &&
            planned.error().code == Errc::kExhausted &&
            inst.touched().size() <= options_.secure.search_node_limit) {
          if (model) ++no_schedule_[k];
          continue;
        }
        ++failed_;
        error(std::string(core::to_string(alg)) + " failed to plan: " +
              planned.error().to_string());
        continue;
      }
      const update::Schedule& schedule = planned.value().schedule;
      const verify::CheckReport report =
          traced("verify.check", op_index, [&] {
            return verify::check_schedule(
                inst, schedule,
                core::default_property(alg, inst.has_waypoint()));
          });
      if (!report.ok) {
        ++failed_;
        error(std::string(core::to_string(alg)) +
              " schedule failed verification: " + report.to_string());
      }
      if (model) {
        rounds_ += schedule.round_count();
        ++schedules_;
        states_ += report.states_checked;
      }
    }
  }

  std::vector<update::Instance> pool_;
  core::PlannerOptions options_;
  double gen_ms_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t schedules_ = 0;
  std::uint64_t states_ = 0;
  std::array<std::uint64_t, 3> no_schedule_{};
};

// closed_pool / sharded_par: one execute_multiflow of the 1000-flow x
// 210-switch pool per op, every flow in flight, seeds S, S+1, ...
class ClosedPool final : public Workload {
 public:
  ClosedPool(std::uint64_t seed, bool quick, bool sharded)
      : Workload(seed, quick), sharded_(sharded) {}

  void setup() override {
    const auto t0 = Clock::now();
    Result<topo::PlannedPoolWorkload> pool =
        topo::planned_pool_workload(kFlows, kSwitches);
    if (!pool.ok()) {
      error("planned_pool_workload failed: " + pool.error().to_string());
      return;
    }
    pool_ = std::move(pool).value();
    pool_plan_ms_ = ms_between(t0, Clock::now());
    // The final forwarding state is a function of the schedules alone, so
    // every op, sequential or sharded, must end in the digest of the
    // single-controller run of seed S.
    reference_ = 0;
    if (sharded_) {
      Result<core::MultiFlowExecutionResult> single = core::execute_multiflow(
          pool_.instance_ptrs, pool_.schedule_ptrs, config(seed_, false));
      if (!single.ok()) {
        error("sequential reference run failed: " +
              single.error().to_string());
        return;
      }
      reference_ = single.value().final_state_digest;
    }
    op(0, false);
  }

  std::uint64_t op(std::size_t i, bool model) override {
    if (pool_.instances.empty()) return 0;
    const auto op_index = static_cast<std::uint32_t>(i);
    SpanScope op_span(sharded_ ? "op.sharded_par" : "op.closed_pool",
                      op_index);
    attempted_ += kFlows;
    const Result<core::MultiFlowExecutionResult> run =
        traced("core.execute_multiflow", op_index, [&] {
          return core::execute_multiflow(pool_.instance_ptrs,
                                         pool_.schedule_ptrs,
                                         config(seed_ + i, sharded_));
        });
    if (!run.ok()) {
      failed_ += kFlows;
      error("execute_multiflow failed: " + run.error().to_string());
      return kFlows;
    }
    const core::MultiFlowExecutionResult& r = run.value();
    for (const core::ExecutionResult& flow : r.flows) {
      const dataplane::MonitorReport& t = flow.traffic;
      if (flow.update.aborted || t.bypassed + t.looped + t.blackholed != 0)
        ++failed_;
    }
    if (reference_ == 0) reference_ = r.final_state_digest;
    if (r.final_state_digest != reference_ ||
        r.final_state_digest == r.initial_state_digest)
      error("final-state digest of seed " + std::to_string(seed_ + i) +
            " differs from the reference run");
    if (model) record(r);
    return kFlows;
  }

  std::size_t model_ops() const override {
    if (quick_) return 4;
    return sharded_ ? 40 : 50;
  }
  std::size_t lanes() const override { return sharded_ ? kThreads : 1; }

  void model_metrics(json::Object& m) override {
    const double updates = static_cast<double>(updates_);
    put(m, "rounds_per_update", ratio(rounds_, updates), "rounds");
    put(m, "sim_makespan_ms", quantile(makespan_ms_, 0.5), "sim_ms");
    put(m, "sim_update_p99_ms", quantile(update_p99_ms_, 0.5), "sim_ms");
    put(m, "frames_per_update", ratio(frames_, updates), "frames");
  }

  void layer_metrics(json::Object& m,
                     const std::vector<double>& untraced_ms) override {
    const double updates = static_cast<double>(updates_);
    const double ops = static_cast<double>(makespan_ms_.size());
    put(m, "update.pool_plan_ms", pool_plan_ms_, "ms");
    put(m, "controller.admission.edges_per_update", ratio(edges_, updates),
        "count");
    put(m, "controller.admission.blocked_frac", ratio(blocked_, updates),
        "fraction");
    put(m, "controller.outbox.messages_per_frame", ratio(messages_, frames_),
        "messages/frame");
    put(m, "controller.outbox.max_hold_ms", max_hold_ms_, "sim_ms");
    put(m, "controller.sync.cross_shard_updates", ratio(cross_shard_, ops),
        "count");
    put(m, "controller.sync.overhead_ms", ratio(sync_overhead_ms_, ops),
        "sim_ms");
    put(m, "sim.events_per_update", ratio(events_, updates), "count");
    put(m, "core.ns_per_event", ratio(sum(loop_wall_ms_) * 1e6, events_),
        "ns");
    put(m, "sim.sharded.horizon_stalls", ratio(stalls_, ops), "count");
    put(m, "sim.sharded.serial_fraction", ratio(stalls_, events_),
        "fraction");
    put(m, "sim.sharded.parallel_epochs", ratio(epochs_, ops), "count");
    put(m, "sim.sharded.overflow_posts", overflow_, "count");
    put(m, "sim.sharded.wall_ms", quantile(loop_wall_ms_, 0.5), "ms");
    put(m, "dataplane.packets_per_update", ratio(packets_, updates), "count");
    put(m, "dataplane.violations", violations_, "count");

    ReplayInput in;
    in.instances = pool_.instance_ptrs;
    in.schedules = pool_.schedule_ptrs;
    for (std::size_t i = 0; i < kFlows; ++i) in.admission_order.push_back(i);
    in.admission_window = kFlows;
    in.queue_depth = max_in_flight_;
    const LayerCosts costs = replay_layers(in, seed_, kReplayOp);
    put_layer_costs(m, costs);
    put(m, "topo.instance_gen_ms", time_pool_generation(kFlows, kSwitches),
        "ms");

    // Every update is lowered cold, submitted and released once; every
    // message is encoded, every frame crosses a channel, every FlowMod is
    // applied and every event passes the queue.
    const double covered_ns =
        updates * (costs.compile_ns + costs.submit_ns + costs.release_ns) +
        messages_ * costs.encode_ns + frames_ * costs.roundtrip_ns +
        flow_mods_ * costs.apply_ns + events_ * costs.queue_ns;
    put(m, "attr.residual_frac",
        1.0 - ratio(covered_ns, sum(untraced_ms) * 1e6), "fraction");
  }

 private:
  static constexpr std::size_t kFlows = 1000;
  static constexpr std::size_t kSwitches = 210;
  static constexpr std::size_t kThreads = 2;  // sharded_par's stepper lanes

  // The 1000x210 closed-loop configuration: all flows in flight under
  // conflict-aware admission, adaptive outbox with a 0.3 ms window,
  // batched replies, a probe packet per flow every 400 us. The channel
  // latency is jittered so each seed produces its own interleaving.
  static core::ExecutorConfig config(std::uint64_t seed, bool sharded) {
    core::ExecutorConfig c;
    c.seed = seed;
    c.channel.latency = sim::LatencyModel::uniform(sim::microseconds(80),
                                                   sim::microseconds(120));
    c.switch_config.install_latency =
        sim::LatencyModel::constant(sim::microseconds(50));
    c.switch_config.batch_replies = true;
    c.traffic_interarrival =
        sim::LatencyModel::constant(sim::microseconds(400));
    c.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
    c.warmup = sim::milliseconds(2);
    c.drain = sim::milliseconds(10);
    c.controller.max_in_flight = kFlows;
    c.controller.admission = controller::AdmissionPolicy::kConflictAware;
    c.controller.batch_mode = controller::BatchMode::kAdaptive;
    c.controller.batch_window = sim::microseconds(300);
    c.controller.partition = topo::PartitionScheme::kGreedyCut;
    if (sharded) {
      c.controller.shards = 4;
      c.controller.exec = sim::ExecMode::kParallel;
      c.controller.threads = kThreads;
    }
    return c;
  }

  void record(const core::MultiFlowExecutionResult& r) {
    stats::Percentiles update_ms;
    for (const core::ExecutionResult& flow : r.flows) {
      update_ms.add(flow.update_ms());
      rounds_ += static_cast<double>(flow.update.rounds.size());
      flow_mods_ += static_cast<double>(flow.update.flow_mods_sent);
    }
    updates_ += r.flows.size();
    makespan_ms_.push_back(r.makespan_ms());
    update_p99_ms_.push_back(update_ms.p99());
    frames_ += static_cast<double>(r.frames_sent);
    messages_ += static_cast<double>(r.messages_sent);
    edges_ += static_cast<double>(r.conflict_edges);
    blocked_ += static_cast<double>(r.blocked_submissions);
    max_hold_ms_ = std::max(max_hold_ms_, r.batching.max_hold_ms());
    max_in_flight_ = std::max(max_in_flight_, r.max_in_flight_observed);
    cross_shard_ += static_cast<double>(r.sharding.cross_shard_updates);
    sync_overhead_ms_ += r.sharding.sync_overhead_ms();
    for (const std::size_t e : r.sharding.events_per_shard)
      events_ += static_cast<double>(e);
    stalls_ += static_cast<double>(r.sharding.horizon_stalls);
    epochs_ += static_cast<double>(r.sharding.parallel_epochs);
    overflow_ += static_cast<double>(r.sharding.overflow_posts);
    loop_wall_ms_.push_back(r.sharding.wall_ms);
    packets_ += static_cast<double>(r.aggregate.total);
    violations_ += static_cast<double>(
        r.aggregate.bypassed + r.aggregate.looped + r.aggregate.blackholed);
  }

  bool sharded_;
  topo::PlannedPoolWorkload pool_;
  double pool_plan_ms_ = 0;
  std::uint64_t reference_ = 0;
  // Model-op accumulators.
  std::uint64_t updates_ = 0;
  double rounds_ = 0, flow_mods_ = 0, frames_ = 0, messages_ = 0;
  double edges_ = 0, blocked_ = 0, cross_shard_ = 0, sync_overhead_ms_ = 0;
  double events_ = 0, stalls_ = 0, epochs_ = 0, overflow_ = 0;
  double packets_ = 0, violations_ = 0, max_hold_ms_ = 0;
  std::size_t max_in_flight_ = 1;
  std::vector<double> makespan_ms_, update_p99_ms_, loop_wall_ms_;
};

// serve_steady: the open-loop service at ~87% of modeled capacity - warm
// plan-cache hits, same-template conflicts, unbatched frames.
class ServeSteady final : public Workload {
 public:
  using Workload::Workload;

  void setup() override { op(0, false); }

  std::uint64_t op(std::size_t i, bool model) override {
    const auto op_index = static_cast<std::uint32_t>(i);
    SpanScope op_span("op.serve_steady", op_index);
    const Result<core::ServiceResult> run =
        traced("core.execute_service", op_index, [&] {
          return core::execute_service(config(seed_ + i, kRate, target()));
        });
    if (!run.ok()) {
      attempted_ += target();
      failed_ += target();
      error("execute_service failed: " + run.error().to_string());
      return target();
    }
    const core::ServiceResult& r = run.value();
    attempted_ += r.stats.arrivals;
    failed_ += r.stats.rejected + r.stats.aborted;
    if (r.steady_state_entries_final != 0)
      error("controller kept " + std::to_string(r.steady_state_entries_final) +
            " entries after the drain (seed " + std::to_string(seed_ + i) +
            ")");
    if (r.stats.completed != r.stats.accepted)
      error("completed != accepted for seed " + std::to_string(seed_ + i));
    if (model) record(r);
    return r.stats.completed;
  }

  std::size_t model_ops() const override { return quick_ ? 3 : 100; }

  void model_metrics(json::Object& m) override {
    put(m, "rounds_per_update", ratio(rounds_, completed_), "rounds");
    put(m, "sim_update_p99_ms", quantile(update_p99_ms_, 0.5), "sim_ms");
    put(m, "sim_wait_p99_ms", quantile(wait_p99_ms_, 0.5), "sim_ms");
    put(m, "frames_per_update", ratio(frames_, completed_), "frames");
    put(m, "sim_capacity_per_s", capacity(), "sim_1/s");
  }

  void layer_metrics(json::Object& m,
                     const std::vector<double>& untraced_ms) override {
    put(m, "controller.plan_cache.hit_rate",
        ratio(hits_, hits_ + compiles_), "fraction");
    // Batching is off: every frame carries one message.
    put(m, "controller.outbox.messages_per_frame", 1.0, "messages/frame");

    // The templates in both directions (as execute_service builds them),
    // submitted in the order the Poisson stream picks them, with the
    // controller's in-flight window.
    const auto t0 = Clock::now();
    const Result<topo::PlannedPoolWorkload> pool = traced(
        "replay.update.pool_plan", kReplayOp,
        [] { return topo::planned_pool_workload(kTemplates, 48); });
    const double pool_plan_ms = ms_between(t0, Clock::now());
    if (!pool.ok()) {
      error("planned_pool_workload failed: " + pool.error().to_string());
      return;
    }
    std::vector<update::Instance> reverse;
    std::vector<update::Schedule> reverse_schedules;
    reverse.reserve(kTemplates);
    reverse_schedules.reserve(kTemplates);
    for (const update::Instance& inst : pool.value().instances) {
      reverse.push_back(std::move(update::Instance::make(
                                      inst.new_path(), inst.old_path(),
                                      inst.waypoint()))
                            .value());
      reverse_schedules.push_back(update::plan_peacock(reverse.back()).value());
    }
    ReplayInput in;
    in.instances = pool.value().instance_ptrs;
    in.schedules = pool.value().schedule_ptrs;
    for (std::size_t t = 0; t < kTemplates; ++t) {
      in.instances.push_back(&reverse[t]);
      in.schedules.push_back(&reverse_schedules[t]);
    }
    Rng rng(seed_);
    std::vector<std::uint64_t> flips(kTemplates, 0);
    for (std::uint64_t k = 0; k < target(); ++k) {
      const std::size_t t = rng.index(kTemplates);
      in.admission_order.push_back(t + kTemplates * (flips[t]++ & 1));
    }
    in.admission_window = kMaxInFlight;
    in.queue_depth = peak_depth_;
    const LayerCosts costs = replay_layers(in, seed_, kReplayOp);
    put_layer_costs(m, costs);
    put(m, "topo.instance_gen_ms", time_pool_generation(kTemplates, 48), "ms");
    put(m, "update.pool_plan_ms", pool_plan_ms, "ms");
    put(m, "controller.admission.edges_per_update", costs.edges_per_update,
        "count");
    put(m, "controller.admission.blocked_frac", costs.blocked_frac,
        "fraction");

    // Warm submissions cost a cache lookup, cold ones a compile; every
    // submission enters and leaves admission; every frame (one message,
    // batching is off) crosses a channel; requests go out pre-encoded, so
    // only the barrier replies are encoded; every FlowMod is applied. The
    // service result exposes no event count, so the queue stays in the
    // residual.
    const double covered_ns =
        hits_ * costs.lookup_ns + compiles_ * costs.compile_ns +
        completed_ * (costs.submit_ns + costs.release_ns) +
        frames_ * costs.roundtrip_ns + barriers_ * costs.encode_ns +
        flow_mods_ * costs.apply_ns;
    put(m, "attr.residual_frac",
        1.0 - ratio(covered_ns, sum(untraced_ms) * 1e6), "fraction");
  }

 private:
  static constexpr std::size_t kTemplates = 8;
  static constexpr std::size_t kMaxInFlight = 16;
  static constexpr double kRate = 600;

  std::uint64_t target() const { return quick_ ? 4000 : 20000; }

  static core::ServiceConfig config(std::uint64_t seed, double rate,
                                    std::uint64_t target) {
    core::ServiceConfig c;
    c.exec.seed = seed;
    c.exec.with_traffic = false;
    c.exec.controller.max_in_flight = kMaxInFlight;
    c.flows = kTemplates;
    c.pool_switches = 48;
    c.arrival_rate_per_sec = rate;
    c.target_completions = target;
    return c;
  }

  // The highest rate on a 10/s grid from 400 to 1000/s whose run rejects
  // nothing and keeps p99 admission wait within 250 ms, by bisection.
  double capacity() {
    const auto meets = [&](std::size_t step) {
      const double rate = 400.0 + 10.0 * static_cast<double>(step);
      const Result<core::ServiceResult> run = traced(
          "core.execute_service.capacity", kReplayOp,
          [&] { return core::execute_service(config(seed_, rate, target())); });
      if (!run.ok()) {
        error("capacity run failed: " + run.error().to_string());
        return false;
      }
      return run.value().stats.rejected == 0 &&
             run.value().completions.wait_ns.quantile(0.99) <= 250e6;
    };
    std::ptrdiff_t lo = -1;  // highest step known to meet the limit
    std::ptrdiff_t hi = 61;  // lowest step known to miss it
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = lo + (hi - lo) / 2;
      if (meets(static_cast<std::size_t>(mid)))
        lo = mid;
      else
        hi = mid;
    }
    return lo < 0 ? 0 : 400.0 + 10.0 * static_cast<double>(lo);
  }

  void record(const core::ServiceResult& r) {
    const controller::CompletionStats& c = r.completions;
    completed_ += static_cast<double>(r.stats.completed);
    rounds_ += static_cast<double>(c.rounds);
    flow_mods_ += static_cast<double>(c.flow_mods_sent);
    barriers_ += static_cast<double>(c.barriers_sent);
    frames_ += static_cast<double>(r.frames_sent);
    hits_ += static_cast<double>(r.stats.plan_hits);
    compiles_ += static_cast<double>(r.stats.plan_compiles);
    peak_depth_ = std::max(peak_depth_, r.stats.peak_controller_depth);
    update_p99_ms_.push_back(c.duration_ns.quantile(0.99) / 1e6);
    wait_p99_ms_.push_back(c.wait_ns.quantile(0.99) / 1e6);
  }

  // Model-op accumulators.
  double completed_ = 0, rounds_ = 0, flow_mods_ = 0, barriers_ = 0;
  double frames_ = 0, hits_ = 0, compiles_ = 0;
  std::size_t peak_depth_ = 1;
  std::vector<double> update_p99_ms_, wait_p99_ms_;
};

// ------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool quick = false;
  std::string out;
  std::string trace;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      o.out = argv[++i];
    } else if (arg == "--trace" && has_value) {
      o.trace = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return !o.workload.empty() && !o.out.empty() && o.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "plan_verify")
    return std::make_unique<PlanVerify>(o.seed, o.quick);
  if (o.workload == "closed_pool")
    return std::make_unique<ClosedPool>(o.seed, o.quick, false);
  if (o.workload == "sharded_par")
    return std::make_unique<ClosedPool>(o.seed, o.quick, true);
  if (o.workload == "serve_steady")
    return std::make_unique<ServeSteady>(o.seed, o.quick);
  return nullptr;
}

json::Object build_info() {
  json::Object b;
#ifdef NDEBUG
  b.set("ndebug", json::Value(true));
#else
  b.set("ndebug", json::Value(false));
#endif
  bool sanitized = std::string_view(TSU_BENCH_CXX_FLAGS).find("-fsanitize") !=
                   std::string_view::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(TSU_BENCH_SANITIZED)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitized = true;
#endif
#endif
  b.set("sanitizer", json::Value(sanitized));
  b.set("compiler", json::Value(__VERSION__));
  b.set("flags", json::Value(TSU_BENCH_CXX_FLAGS));
  return b;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Chrome trace-event JSON ("X" complete events, microseconds) plus the
// per-name total and self time (duration minus the children's).
json::Object write_trace(const std::string& path) {
  const std::vector<Span>& spans = g_tracer.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  json::Array events;
  events.reserve(spans.size());
  std::map<std::string, std::array<double, 3>> by_name;  // count, total, self
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    if (s.end_ns < 0) continue;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    std::array<double, 3>& agg = by_name[s.name];
    agg[0] += 1;
    agg[1] += dur;
    agg[2] += dur - child_ns[k];
    json::Object args;
    args.set("op", json::Value(static_cast<std::int64_t>(s.op)));
    args.set("parent", json::Value(static_cast<std::int64_t>(s.parent)));
    json::Object e;
    e.set("name", json::Value(s.name));
    e.set("ph", json::Value("X"));
    e.set("ts", json::Value(static_cast<double>(s.start_ns) / 1e3));
    e.set("dur", json::Value(dur / 1e3));
    e.set("pid", json::Value(1));
    e.set("tid", json::Value(1));
    e.set("args", json::Value(std::move(args)));
    events.push_back(json::Value(std::move(e)));
  }
  json::Object doc;
  doc.set("traceEvents", json::Value(std::move(events)));
  doc.set("displayTimeUnit", json::Value("ms"));
  std::ofstream(path) << json::write(json::Value(std::move(doc))) << "\n";

  json::Object summary;
  for (const auto& [name, agg] : by_name) {
    json::Object entry;
    entry.set("count", json::Value(agg[0]));
    entry.set("total_ms", json::Value(agg[1] / 1e6));
    entry.set("self_ms", json::Value(agg[2] / 1e6));
    summary.set(name, json::Value(std::move(entry)));
  }
  return summary;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  const bool traced = !o.trace.empty();
  json::Object metrics;
  CpuPicker cpus(w->lanes());

  // Set-up, repeated; the median is setup_s. The first set-up runs before
  // any op, the others at even steps of the timed phase: set-ups run back
  // to back fall into one second of host load, and their median then moves
  // with it far more than the ops' median does.
  const std::size_t setup_reps = traced || o.quick ? 1 : 21;
  std::vector<double> setup_s;
  std::uint64_t setup_allocs = 0;
  const auto run_setup = [&] {
    cpus.repick();
    const std::uint64_t a0 = alloc_hooks::allocations();
    const auto t0 = Clock::now();
    w->setup_uncounted();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_allocs = alloc_hooks::allocations() - a0;
    return setup_s.back();
  };
  run_setup();

  // Timed phase: ops back to back. Untraced runs go on for --seconds of
  // ops, and for at least the model ops and 100 ops in all. The traced run
  // does exactly the model ops, each once untraced and once traced; a coin
  // decides which goes first, so neither side gets the warmer caches.
  const std::size_t model_ops = w->model_ops();
  const std::size_t min_ops =
      traced || o.quick ? model_ops : std::max<std::size_t>(model_ops, 100);
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<std::uint64_t> op_updates;
  std::uint64_t timed_allocs = 0;
  const auto run_traced = [&](std::size_t i) {
    g_tracer.set_on(true);
    const auto t0 = Clock::now();
    w->op(i, false);
    traced_ms.push_back(ms_between(t0, Clock::now()));
    g_tracer.set_on(false);
  };
  if (traced) g_tracer.reserve(std::size_t{1} << 20);
  Rng order(o.seed);
  const auto start = Clock::now();
  double paused_s = 0;  // set-ups inside the timed phase
  for (std::size_t i = 0;; ++i) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1e3 - paused_s;
    if (i >= min_ops && (traced || elapsed_s >= o.seconds)) break;
    if (setup_s.size() < setup_reps &&
        elapsed_s >= o.seconds * static_cast<double>(setup_s.size()) /
                         static_cast<double>(setup_reps))
      paused_s += run_setup();
    cpus.maybe_repick();
    const bool traced_first = traced && order.bernoulli(0.5);
    if (traced_first) run_traced(i);
    const std::uint64_t a0 = alloc_hooks::allocations();
    const auto t0 = Clock::now();
    op_updates.push_back(w->op(i, i < model_ops));
    op_ms.push_back(ms_between(t0, Clock::now()));
    timed_allocs += alloc_hooks::allocations() - a0;
    if (traced && !traced_first) run_traced(i);
  }
  while (setup_s.size() < setup_reps) run_setup();
  std::uint64_t updates = 0;
  for (const std::uint64_t u : op_updates) updates += u;

  // Throughput per 1/25th of the ops, median over the slices: robust to a
  // burst of outside load landing on one part of the run.
  std::vector<double> slice_rate;
  const std::size_t slices = std::min<std::size_t>(25, op_ms.size());
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t b = s * op_ms.size() / slices;
    const std::size_t e = (s + 1) * op_ms.size() / slices;
    double ms = 0;
    double u = 0;
    for (std::size_t k = b; k < e; ++k) {
      ms += op_ms[k];
      u += static_cast<double>(op_updates[k]);
    }
    slice_rate.push_back(ratio(u, ms / 1e3));
  }
  put(metrics, "setup_s", quantile(setup_s, 0.5), "s");
  put(metrics, "updates_per_s", quantile(slice_rate, 0.5), "1/s");
  put(metrics, "op_ms_p50", quantile(op_ms, 0.5), "ms");
  put(metrics, "op_ms_p90", quantile(op_ms, 0.9), "ms");
  put(metrics, "op_ms_p99", quantile(op_ms, 0.99), "ms");
  put(metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
  put_zero_defaults(metrics, traced);
  w->model_metrics(metrics);

  json::Object self_times;
  if (traced) {
    g_tracer.set_on(true);
    w->layer_metrics(metrics, op_ms);
    g_tracer.set_on(false);
    put(metrics, "trace.overhead_frac",
        ratio(quantile(traced_ms, 0.5), quantile(op_ms, 0.5)) - 1.0,
        "fraction");
    put(metrics, "alloc.per_update",
        ratio(static_cast<double>(timed_allocs), static_cast<double>(updates)),
        "count");
    put(metrics, "alloc.setup", static_cast<double>(setup_allocs), "count");
    self_times = write_trace(o.trace);
  }

  json::Object doc;
  doc.set("workload", json::Value(o.workload));
  doc.set("seed", json::Value(static_cast<std::int64_t>(o.seed)));
  doc.set("quick", json::Value(o.quick));
  doc.set("traced", json::Value(traced));
  doc.set("build", json::Value(build_info()));
  json::Array setup_times;
  for (const double s : setup_s) setup_times.push_back(json::Value(s));
  doc.set("setup_reps_s", json::Value(std::move(setup_times)));
  doc.set("ops", json::Value(static_cast<std::int64_t>(op_ms.size())));
  doc.set("model_ops", json::Value(static_cast<std::int64_t>(model_ops)));
  doc.set("updates", json::Value(static_cast<std::int64_t>(updates)));
  doc.set("attempted", json::Value(static_cast<std::int64_t>(w->attempted())));
  doc.set("failed", json::Value(static_cast<std::int64_t>(w->failed())));
  doc.set("correct", json::Value(w->correct()));
  json::Array errors;
  for (const std::string& e : w->errors()) errors.push_back(json::Value(e));
  doc.set("errors", json::Value(std::move(errors)));
  doc.set("metrics", json::Value(std::move(metrics)));
  if (traced) {
    doc.set("spans_dropped", json::Value(static_cast<std::int64_t>(
                                 g_tracer.dropped())));
    doc.set("self_time", json::Value(std::move(self_times)));
  }
  std::ofstream(o.out) << json::write(json::Value(std::move(doc)),
                                      json::WriteOptions{2})
                       << "\n";
  for (const std::string& e : w->errors())
    std::fprintf(stderr, "error: %s\n", e.c_str());
  return w->correct() ? 0 : 1;
}

}  // namespace
}  // namespace tsu::bench

int main(int argc, char** argv) {
  tsu::bench::Options options;
  if (!tsu::bench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: tsu_bench --workload W --seed S --seconds T "
                 "--out FILE [--trace FILE] [--quick]\n");
    return 2;
  }
  return tsu::bench::run(options);
}
