// E8: the controller's message queue under concurrent policy updates.
//
// The paper's controller enqueues REST messages and processes them
// strictly one at a time (§2; multi-policy scheduling is delegated to
// refs [1] and [3]). This bench submits k simultaneous policy updates and
// measures makespan, per-update duration and queueing delay - the head-of-
// line cost of the serializing design.
//
// The hotpath section is the steady-state cost model behind every number
// above: ns/event and allocations/event for the pooled EventQueue loop,
// cancel churn, a codec encode+decode round trip on caller-owned scratch,
// and a full channel send->deliver round trip. The allocation counters
// come from the global operator-new hooks (util/alloc_hooks.hpp, included
// in THIS translation unit only); every *_steady_allocs figure is expected
// to be zero, and the committed BENCH_*.json baseline plus
// tools/check_bench_regression.py turn any regression - allocation or
// >threshold ns/event - into a CI failure.
#include "bench_common.hpp"

#include <chrono>
#include <fstream>
#include <string_view>

#include "tsu/channel/channel.hpp"
#include "tsu/json/json.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

// Wall-clock ns for one run of `body`, amortized over `iterations`.
template <typename Body>
double time_ns_per(std::uint64_t iterations, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start);
  return static_cast<double>(ns.count()) / static_cast<double>(iterations);
}

void queue_bench(json::Array* rows) {
  bench::print_header("E8", "message-queue behaviour under k concurrent updates",
                      "section 2 (controller-side message queue; cf. [1],[3])");

  stats::Table table({"k requests", "makespan ms", "mean update ms",
                      "mean queueing delay ms", "max queueing delay ms"});

  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    Rng rng(1000 + k);
    topo::RandomInstanceOptions options;
    options.old_interior_min = 4;
    options.old_interior_max = 6;
    options.new_len_min = 4;
    options.new_len_max = 6;

    std::vector<update::Instance> instances;
    std::vector<update::Schedule> schedules;
    for (std::size_t i = 0; i < k; ++i) {
      instances.push_back(topo::random_instance(rng, options));
      const Result<core::PlanOutcome> planned =
          core::plan(instances.back(), core::Algorithm::kWayUp);
      if (!planned.ok()) {
        instances.pop_back();
        continue;
      }
      schedules.push_back(planned.value().schedule);
    }
    std::vector<const update::Instance*> instance_ptrs;
    std::vector<const update::Schedule*> schedule_ptrs;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      instance_ptrs.push_back(&instances[i]);
      schedule_ptrs.push_back(&schedules[i]);
    }

    core::ExecutorConfig config;
    config.with_traffic = false;
    config.channel.latency = sim::LatencyModel::constant(sim::milliseconds(1));
    config.switch_config.install_latency =
        sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
    const Result<std::vector<core::ExecutionResult>> results =
        core::execute_queue(instance_ptrs, schedule_ptrs, config);
    if (!results.ok()) continue;

    stats::Summary durations;
    stats::Summary queueing;
    sim::SimTime first_start = ~sim::SimTime{0};
    sim::SimTime last_finish = 0;
    for (const core::ExecutionResult& r : results.value()) {
      durations.add(r.update_ms());
      queueing.add(sim::to_ms(r.update.queueing_delay()));
      first_start = std::min(first_start, r.update.started);
      last_finish = std::max(last_finish, r.update.finished);
    }
    const double makespan_ms = sim::to_ms(last_finish - first_start);
    table.add_row({std::to_string(results.value().size()),
                   bench::fmt(makespan_ms), bench::fmt(durations.mean()),
                   bench::fmt(queueing.mean()), bench::fmt(queueing.max())});
    if (rows != nullptr) {
      json::Object entry;
      entry.set("k", json::Value(
                         static_cast<std::int64_t>(results.value().size())));
      entry.set("makespan_ms", json::Value(makespan_ms));
      entry.set("mean_update_ms", json::Value(durations.mean()));
      entry.set("mean_queueing_delay_ms", json::Value(queueing.mean()));
      entry.set("max_queueing_delay_ms", json::Value(queueing.max()));
      rows->push_back(json::Value(std::move(entry)));
    }
  }
  bench::print_table(table);
  std::printf(
      "shape: the makespan and queueing delay grow linearly in k - the\n"
      "serializing queue is simple and consistent but head-of-line blocked;\n"
      "refs [1]/[3] of the paper study schedulers for multiple policies.\n");
}

// The hot-path cost model. Each scenario warms its pools to the high-water
// mark first (the same discipline as tests/hotpath_alloc_test.cpp, which
// pins the zero-allocation property as a hard test), then measures a long
// steady-state loop: wall ns/event and allocations observed in the window.
json::Object hotpath_bench() {
  bench::print_header(
      "HOTPATH", "steady-state ns/event and allocations per event",
      "allocation-free hot path (event arena, scratch codec, frame pool)");

  json::Object hotpath;
  stats::Table table({"scenario", "events", "ns/event", "allocs (steady)"});
  const auto record = [&](const char* name, std::uint64_t events,
                          double ns_per_event, std::uint64_t steady_allocs) {
    table.add_row({name, std::to_string(events), bench::fmt(ns_per_event),
                   std::to_string(steady_allocs)});
    json::Object entry;
    entry.set("events", json::Value(static_cast<std::int64_t>(events)));
    entry.set("ns_per_event", json::Value(ns_per_event));
    entry.set("steady_allocs",
              json::Value(static_cast<std::int64_t>(steady_allocs)));
    hotpath.set(name, json::Value(std::move(entry)));
  };

  // --- EventQueue pop/fire/push over a warm 1000-slot arena ------------
  {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    sim::SimTime t = 0;
    auto cycle = [&]() {
      auto event = q.pop();
      event.fn();
      q.push(++t, [&fired]() { ++fired; });
    };
    for (int i = 0; i < 1000; ++i) q.push(++t, [&fired]() { ++fired; });
    for (int i = 0; i < 1000; ++i) {
      cycle();
      q.cancel(q.push(t + 500000, []() {}));
    }
    constexpr std::uint64_t kCycles = 2000000;
    const std::uint64_t before = alloc_hooks::allocations();
    const double ns = time_ns_per(kCycles, [&]() {
      for (std::uint64_t i = 0; i < kCycles; ++i) cycle();
    });
    record("queue_pop_push", kCycles, ns,
           alloc_hooks::allocations() - before);

    constexpr std::uint64_t kCancels = 1000000;
    const std::uint64_t before_cancel = alloc_hooks::allocations();
    const double cancel_ns = time_ns_per(kCancels, [&]() {
      for (std::uint64_t i = 0; i < kCancels; ++i)
        q.cancel(q.push(t + 500000, []() {}));
    });
    record("queue_cancel_churn", kCancels, cancel_ns,
           alloc_hooks::allocations() - before_cancel);
  }

  // --- the same loop through constant-delay FIFO lanes ------------------
  // 1000 self-rescheduling chains, each with one of three repeated delays
  // (link hop, probe interarrival, switch install), so every entry rides a
  // lane ring of fixed occupancy and no push or pop sifts a heap.
  {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    sim::Duration last_delay = 0;
    constexpr sim::Duration kDelays[] = {sim::microseconds(20),
                                         sim::microseconds(400),
                                         sim::microseconds(50)};
    const auto push = [&](sim::Duration delay, sim::SimTime now) {
      return q.push_after(delay, now + delay, [&fired, &last_delay, delay]() {
        ++fired;
        last_delay = delay;
      });
    };
    auto cycle = [&]() {
      auto event = q.pop();
      event.fn();
      push(last_delay, event.time);
    };
    for (sim::SimTime now = 0; now < 1000; ++now)
      push(kDelays[now % std::size(kDelays)], now);
    for (int i = 0; i < 1000; ++i) {
      cycle();
      q.cancel(push(kDelays[i % std::size(kDelays)], q.next_time()));
    }
    constexpr std::uint64_t kCycles = 2000000;
    const std::uint64_t before = alloc_hooks::allocations();
    const double ns = time_ns_per(kCycles, [&]() {
      for (std::uint64_t i = 0; i < kCycles; ++i) cycle();
    });
    record("queue_lane_pop_push", kCycles, ns,
           alloc_hooks::allocations() - before);
  }

  // --- codec: encode_into caller scratch, decode a span view -----------
  {
    proto::FlowMod mod;
    mod.match = flow::Match::exact_flow(42);
    mod.action = flow::Action::forward(7);
    const proto::Message message = proto::make_flow_mod(1234, mod);
    std::vector<std::byte> scratch;
    proto::encode_into(message, scratch);  // warm the scratch capacity
    std::uint64_t decoded = 0;
    constexpr std::uint64_t kFrames = 1000000;
    const std::uint64_t before = alloc_hooks::allocations();
    const double ns = time_ns_per(kFrames, [&]() {
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        proto::encode_into(message, scratch);
        const Result<proto::Message> round = proto::decode(scratch);
        if (round.ok() && round.value().type() == proto::MsgType::kFlowMod)
          ++decoded;
      }
    });
    record("codec_roundtrip", kFrames, ns,
           alloc_hooks::allocations() - before);
    if (decoded != kFrames)
      std::fprintf(stderr, "codec round trip dropped frames - BENCH BUG\n");
  }

  // --- channel: send -> pooled frame -> codec -> delivery -> decode ----
  {
    sim::Simulator sim;
    channel::ChannelConfig config;
    channel::ControlChannel ch(sim, config, Rng(7));
    std::uint64_t received = 0;
    ch.set_receiver([&](const proto::Message& message) {
      if (message.type() == proto::MsgType::kBarrierRequest) ++received;
    });
    for (std::uint32_t i = 0; i < 64; ++i) {
      ch.send(proto::make_barrier_request(i));
      sim.run();
    }
    constexpr std::uint64_t kRoundTrips = 200000;
    const std::uint64_t before = alloc_hooks::allocations();
    const double ns = time_ns_per(kRoundTrips, [&]() {
      for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
        ch.send(proto::make_barrier_request(static_cast<Xid>(i)));
        sim.run();
      }
    });
    record("channel_roundtrip", kRoundTrips, ns,
           alloc_hooks::allocations() - before);
    if (received != 64 + kRoundTrips)
      std::fprintf(stderr, "channel round trip dropped frames - BENCH BUG\n");
  }

  bench::print_table(table);
  std::printf(
      "shape: every steady-allocs column is zero - the slot arena, frame\n"
      "pool and caller-owned codec scratch absorb the per-event traffic\n"
      "after warmup. tools/check_bench_regression.py fails CI if any\n"
      "allocation reappears or ns/event regresses past the threshold.\n");
  return hotpath;
}

}  // namespace
}  // namespace tsu

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--json") json_path = argv[i + 1];

  tsu::json::Array queue_rows;
  tsu::queue_bench(json_path != nullptr ? &queue_rows : nullptr);
  tsu::json::Object hotpath = tsu::hotpath_bench();

  if (json_path != nullptr) {
    tsu::json::Object doc;
    doc.set("bench", tsu::json::Value("bench_queue/serial-queue+hotpath"));
    doc.set("queue", tsu::json::Value(std::move(queue_rows)));
    doc.set("hotpath", tsu::json::Value(std::move(hotpath)));
    std::ofstream out(json_path);
    out << tsu::json::write(tsu::json::Value(std::move(doc))) << "\n";
    std::printf("queue+hotpath JSON written to %s\n", json_path);
  }
  return 0;
}
