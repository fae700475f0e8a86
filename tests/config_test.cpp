#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsu/core/config.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::core {
namespace {

Result<ExecutorConfig> parse(std::string_view text) {
  return config_from_json(text);
}

TEST(ConfigTest, EmptyObjectYieldsDefaults) {
  const Result<ExecutorConfig> config = parse("{}");
  ASSERT_TRUE(config.ok());
  const ExecutorConfig defaults;
  EXPECT_EQ(config.value().seed, defaults.seed);
  EXPECT_EQ(config.value().with_traffic, defaults.with_traffic);
  EXPECT_EQ(config.value().priority, defaults.priority);
}

TEST(ConfigTest, FullDocumentParses) {
  const Result<ExecutorConfig> config = parse(R"({
    "seed": 99,
    "channel": {
      "latency": {"kind": "uniform", "lo_ms": 0.1, "hi_ms": 8},
      "loss": 0.05,
      "retransmit_timeout_ms": 30
    },
    "switch": {
      "install": {"kind": "lognormal", "median_ms": 2, "sigma": 1.0},
      "barrier_us": 50,
      "processing_us": 5
    },
    "use_barriers": false,
    "flow": 7,
    "priority": 321,
    "interval_ms": 12.5,
    "traffic": {
      "enabled": false,
      "interarrival": {"kind": "exponential", "mean_ms": 0.2},
      "link": {"kind": "constant", "ms": 0.05},
      "ttl": 32,
      "warmup_ms": 2,
      "drain_ms": 10
    }
  })");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  const ExecutorConfig& c = config.value();
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.channel.latency.kind, sim::LatencyKind::kUniform);
  EXPECT_DOUBLE_EQ(c.channel.loss_probability, 0.05);
  EXPECT_EQ(c.channel.retransmit_timeout, sim::milliseconds(30));
  EXPECT_EQ(c.switch_config.install_latency.kind,
            sim::LatencyKind::kLognormal);
  EXPECT_EQ(c.switch_config.barrier_processing, sim::microseconds(50));
  EXPECT_FALSE(c.controller.use_barriers);
  EXPECT_EQ(c.flow, 7u);
  EXPECT_EQ(c.priority, 321);
  EXPECT_EQ(c.interval, sim::from_ms(12.5));
  EXPECT_FALSE(c.with_traffic);
  EXPECT_EQ(c.ttl, 32);
  EXPECT_EQ(c.warmup, sim::milliseconds(2));
}

TEST(ConfigTest, AllLatencyKindsParse) {
  for (const char* text : {
           R"({"kind": "constant", "ms": 1})",
           R"({"kind": "uniform", "lo_ms": 1, "hi_ms": 2})",
           R"({"kind": "exponential", "mean_ms": 1})",
           R"({"kind": "lognormal", "median_ms": 1, "sigma": 0.5})",
           R"({"kind": "pareto", "lo_ms": 0.5, "hi_ms": 50, "alpha": 1.3})",
       }) {
    const Result<json::Value> doc = json::parse(text);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(latency_from_json(doc.value()).ok()) << text;
  }
}

TEST(ConfigTest, LatencyRejectsBadInput) {
  for (const char* text : {
           R"("constant")",                                  // not an object
           R"({"ms": 1})",                                   // missing kind
           R"({"kind": "warp", "ms": 1})",                   // unknown kind
           R"({"kind": "constant"})",                        // missing field
           R"({"kind": "constant", "ms": -1})",              // negative
           R"({"kind": "uniform", "lo_ms": 5, "hi_ms": 1})", // inverted
           R"({"kind": "exponential", "mean_ms": 0})",       // zero mean
           R"({"kind": "pareto", "lo_ms": 0, "hi_ms": 1, "alpha": 1})",
           // Positive in ms, but 0 ns or an empty range after conversion:
           // each once aborted the process.
           R"({"kind": "exponential", "mean_ms": 1e-9})",
           R"({"kind": "lognormal", "median_ms": 1e-9, "sigma": 0.5})",
           R"({"kind": "pareto", "lo_ms": 1, "hi_ms": 1.0000000001,
               "alpha": 1})",
           R"({"kind": "pareto", "lo_ms": 1e300, "hi_ms": 2e300,
               "alpha": 1})",
       }) {
    const Result<json::Value> doc = json::parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    EXPECT_FALSE(latency_from_json(doc.value()).ok()) << text;
  }
}

TEST(ConfigTest, UnknownFieldsRejected) {
  EXPECT_FALSE(parse(R"({"sedd": 1})").ok());
  EXPECT_FALSE(parse(R"({"channel": {"latencyy": {}}})").ok());
  EXPECT_FALSE(parse(R"({"traffic": {"rate": 1}})").ok());
  EXPECT_FALSE(parse(R"({"switch": {"install_ms": 1}})").ok());
}

TEST(ConfigTest, RetiredKnobsAreUnknownFields) {
  for (const char* doc :
       {R"({"batch_frames": true})", R"({"speculate": true})",
        R"({"steal": true})", R"({"plan_cache": "on"})",
        R"({"admission_release": "round"})", R"({"retry_backoff_ms": 5})"}) {
    const Result<ExecutorConfig> parsed = parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_NE(parsed.error().message.find("unknown config field"),
              std::string::npos)
        << parsed.error().to_string();
  }
  for (const char* doc :
       {R"({"service": {"alternate_directions": false}})",
        R"({"service": {"classes": [{"weight": 1}]}})",
        R"({"service": {"trace_us": [100]}})",
        R"({"service": {"trace_cycle": false}})",
        R"({"service": {"submit_depth": 2}})"}) {
    const Result<ServiceConfig> service =
        service_config_from_json(std::string_view(doc));
    ASSERT_FALSE(service.ok()) << doc;
    EXPECT_NE(service.error().message.find("unknown service field"),
              std::string::npos)
        << service.error().to_string();
  }
  // Retired values of surviving knobs: the error names what is left.
  const std::pair<const char*, const char*> values[] = {
      {R"({"batch_mode": "instant"})", "(off | adaptive)"},
      {R"({"batch_mode": "window"})", "(off | adaptive)"},
      {R"({"admission": "serialize"})", "(blind | conflict_aware)"}};
  for (const auto& [doc, names] : values) {
    const Result<ExecutorConfig> parsed = parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_NE(parsed.error().message.find(names), std::string::npos)
        << parsed.error().to_string();
  }
}

TEST(ConfigTest, RangeChecks) {
  EXPECT_FALSE(parse(R"({"seed": -1})").ok());
  EXPECT_FALSE(parse(R"({"channel": {"loss": 1.5}})").ok());
  EXPECT_FALSE(parse(R"({"channel": {"loss": 1}})").ok());
  EXPECT_FALSE(parse(R"({"priority": 70000})").ok());
  EXPECT_FALSE(parse(R"({"interval_ms": -2})").ok());
  EXPECT_FALSE(parse(R"({"traffic": {"ttl": 0}})").ok());
  EXPECT_FALSE(parse(R"({"use_barriers": "yes"})").ok());
  EXPECT_FALSE(parse(R"({"max_in_flight": 0})").ok());
  EXPECT_FALSE(parse(R"({"batch_mode": "eager"})").ok());
  EXPECT_FALSE(parse(R"({"batch_window_ms": -0.5})").ok());
  EXPECT_FALSE(parse(R"({"batch_bytes": 0})").ok());
  EXPECT_FALSE(parse(R"({"admission": "optimistic"})").ok());
  EXPECT_FALSE(parse(R"({"shards": 0})").ok());
  EXPECT_FALSE(parse(R"({"shards": 257})").ok());
  EXPECT_FALSE(parse(R"({"partition": "modulo"})").ok());
  EXPECT_FALSE(parse(R"({"switch": {"batch_replies": 1}})").ok());
  EXPECT_FALSE(parse(R"(42)").ok());
  EXPECT_FALSE(parse(R"(not json)").ok());
}

TEST(ConfigTest, NonIntegralAndHugeIntegersAreErrors) {
  // Each document once aborted the process: integer fields read the number
  // through an assert that it is integral and at most 2^53.
  const struct {
    const char* doc;
    Errc code;
  } cases[] = {
      {R"({"seed": 1.5})", Errc::kParseError},
      {R"({"max_in_flight": 1e300})", Errc::kOutOfRange},
      {R"({"threads": 0.5})", Errc::kParseError},
      {R"({"shards": "2"})", Errc::kParseError},
      {R"({"traffic": {"ttl": 2.5}})", Errc::kParseError},
  };
  for (const auto& c : cases) {
    const Result<ExecutorConfig> parsed = parse(c.doc);
    ASSERT_FALSE(parsed.ok()) << c.doc;
    EXPECT_EQ(parsed.error().code, c.code) << parsed.error().to_string();
  }
  // The largest integer a JSON number holds exactly still parses.
  const Result<ExecutorConfig> edge = parse(R"({"seed": 9007199254740992})");
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  EXPECT_EQ(edge.value().seed, std::uint64_t{1} << 53);
}

TEST(ConfigTest, ServicePoolNeedsOneBlockOfSwitches) {
  // pool_switches 3 once parsed and then aborted execute_service inside
  // topo::pool_workload, which needs a block of 6 switches.
  const Result<ServiceConfig> small = service_config_from_json(
      std::string_view(R"({"service": {"pool_switches": 3}})"));
  ASSERT_FALSE(small.ok());
  EXPECT_EQ(small.error().code, Errc::kOutOfRange);
  EXPECT_FALSE(service_config_from_json(
                   std::string_view(R"({"service": {"flows": 1.5}})"))
                   .ok());
  const Result<ServiceConfig> block = service_config_from_json(
      std::string_view(R"({"service": {"pool_switches": 6}})"));
  ASSERT_TRUE(block.ok()) << block.error().to_string();
  EXPECT_EQ(block.value().pool_switches, 6u);
}

TEST(ConfigTest, SnapshotWindowIsBounded) {
  // 2^53 once parsed, and execute_service's up-front reservation of the
  // snapshot ring then threw std::bad_alloc.
  const Result<ServiceConfig> huge =
      service_config_from_json(std::string_view(
          R"({"service": {"snapshot_interval_ms": 1,
                          "snapshot_window": 9007199254740992,
                          "target": 10}})"));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error().code, Errc::kOutOfRange);
  const Result<ServiceConfig> edge = service_config_from_json(
      std::string_view(R"({"service": {"snapshot_window": 65536}})"));
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  EXPECT_EQ(edge.value().snapshot_window, kMaxSnapshotWindow);
}

TEST(ConfigTest, ShardingKnobsParse) {
  const Result<ExecutorConfig> parsed = parse(
      R"({"shards": 8, "partition": "block",
          "switch": {"batch_replies": true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().controller.shards, 8u);
  EXPECT_EQ(parsed.value().controller.partition,
            topo::PartitionScheme::kBlock);
  EXPECT_TRUE(parsed.value().switch_config.batch_replies);

  // Defaults: the single controller, plain replies.
  const Result<ExecutorConfig> defaults = parse("{}");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().controller.shards, 1u);
  EXPECT_FALSE(defaults.value().switch_config.batch_replies);
}

TEST(ConfigTest, ControllerKnobsParse) {
  const Result<ExecutorConfig> parsed = parse(
      R"({"max_in_flight": 64,
          "batch_mode": "adaptive", "batch_window_ms": 0.25,
          "batch_bytes": 8192, "admission": "conflict_aware"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().controller.max_in_flight, 64u);
  EXPECT_EQ(parsed.value().controller.batch_mode,
            controller::BatchMode::kAdaptive);
  EXPECT_EQ(parsed.value().controller.batch_window, sim::microseconds(250));
  EXPECT_EQ(parsed.value().controller.batch_bytes, 8192u);
  EXPECT_EQ(parsed.value().controller.admission,
            controller::AdmissionPolicy::kConflictAware);
}

TEST(ConfigTest, RoundTripThroughJson) {
  ExecutorConfig config;
  config.seed = 17;
  config.channel.latency =
      sim::LatencyModel::pareto(sim::microseconds(500),
                                sim::milliseconds(50), 1.3);
  config.channel.loss_probability = 0.02;
  config.controller.use_barriers = false;
  config.controller.max_in_flight = 32;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::microseconds(750);
  config.controller.batch_bytes = 4096;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.shards = 4;
  config.controller.partition = topo::PartitionScheme::kBlock;
  config.switch_config.batch_replies = true;
  config.with_traffic = false;
  config.ttl = 48;
  config.interval = sim::milliseconds(7);

  const std::string rendered = json::write(config_to_json(config));
  const Result<ExecutorConfig> reparsed =
      config_from_json(std::string_view(rendered));
  ASSERT_TRUE(reparsed.ok()) << rendered;
  const ExecutorConfig& c = reparsed.value();
  EXPECT_EQ(c.seed, 17u);
  EXPECT_EQ(c.channel.latency.kind, sim::LatencyKind::kPareto);
  EXPECT_NEAR(c.channel.latency.c, 1.3, 1e-9);
  EXPECT_DOUBLE_EQ(c.channel.loss_probability, 0.02);
  EXPECT_FALSE(c.controller.use_barriers);
  EXPECT_EQ(c.controller.max_in_flight, 32u);
  EXPECT_EQ(c.controller.batch_mode, controller::BatchMode::kAdaptive);
  EXPECT_EQ(c.controller.batch_window, sim::microseconds(750));
  EXPECT_EQ(c.controller.batch_bytes, 4096u);
  EXPECT_EQ(c.controller.admission,
            controller::AdmissionPolicy::kConflictAware);
  EXPECT_EQ(c.controller.shards, 4u);
  EXPECT_EQ(c.controller.partition, topo::PartitionScheme::kBlock);
  EXPECT_TRUE(c.switch_config.batch_replies);
  EXPECT_FALSE(c.with_traffic);
  EXPECT_EQ(c.ttl, 48);
  EXPECT_EQ(c.interval, sim::milliseconds(7));
}

// Durations past the 64-bit clock saturate at sim::kMaxDuration instead of
// hitting an undefined double-to-integer cast; in-range values keep the
// plain truncating conversion.
TEST(ConfigTest, OutOfRangeDurationsSaturate) {
  const Result<ExecutorConfig> huge =
      parse(R"({"switch": {"barrier_us": 1e300, "processing_us": 1e300}})");
  ASSERT_TRUE(huge.ok()) << huge.error().to_string();
  EXPECT_EQ(huge.value().switch_config.barrier_processing, sim::kMaxDuration);
  EXPECT_EQ(huge.value().switch_config.message_processing, sim::kMaxDuration);
  const Result<ExecutorConfig> plain =
      parse(R"({"switch": {"barrier_us": 2.5, "processing_us": 0.0017}})");
  ASSERT_TRUE(plain.ok()) << plain.error().to_string();
  EXPECT_EQ(plain.value().switch_config.barrier_processing, 2500u);
  EXPECT_EQ(plain.value().switch_config.message_processing, 1u);

  const Result<ServiceConfig> slow =
      service_config_from_json(std::string_view(
          R"({"service": {"rate_per_sec": 1e-300}})"));
  ASSERT_TRUE(slow.ok()) << slow.error().to_string();
  // The mean gap, 1e9 / rate ns, saturates too.
  const sim::LatencyModel gap = sim::LatencyModel::exponential(
      sim::from_ns(1e9 / slow.value().arrival_rate_per_sec));
  EXPECT_DOUBLE_EQ(gap.mean(), static_cast<double>(sim::kMaxDuration));
  Rng rng(1);
  EXPECT_LE(gap.sample(rng), sim::kMaxDuration);
  // A rate above 1e9/s has a mean gap under 1 ns.
  const Result<ServiceConfig> fast = service_config_from_json(
      std::string_view(R"({"service": {"rate_per_sec": 2e9}})"));
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.error().code, Errc::kOutOfRange);
}

// Probes injected 0 ns apart never let the clock advance; the event queue
// once grew until memory ran out.
TEST(ConfigTest, ZeroTrafficInterarrivalIsRejected) {
  const Result<ExecutorConfig> config =
      parse(R"({"traffic": {"interarrival": {"kind": "constant", "ms": 0}}})");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  const topo::Fig1 fig = topo::fig1();
  const update::Schedule schedule =
      plan(fig.instance, Algorithm::kWayUp).value().schedule;
  const Result<MultiFlowExecutionResult> closed =
      execute_multiflow({&fig.instance}, {&schedule}, config.value());
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.error().code, Errc::kInvalidArgument)
      << closed.error().to_string();

  ServiceConfig service;
  service.exec = config.value();
  service.target_completions = 10;
  const Result<ServiceResult> open = execute_service(service);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.error().code, Errc::kInvalidArgument)
      << open.error().to_string();
}

// Saturated durations are 2^62 ns each, and four of them in sequence once
// wrapped the 64-bit clock and aborted the process. The run stops at the
// 2^63 ns limit and returns an error instead.
TEST(ConfigTest, SaturatedDurationsEndTheRunWithAnError) {
  const topo::Fig1 fig = topo::fig1();
  const update::Schedule schedule =
      plan(fig.instance, Algorithm::kWayUp).value().schedule;
  for (const char* doc :
       {R"({"interval_ms": 1e300, "traffic": {"enabled": false}})",
        R"({"channel": {"latency": {"kind": "constant", "ms": 1e300}},
            "traffic": {"enabled": false}})",
        R"({"channel": {"loss": 0.5, "retransmit_timeout_ms": 1e300},
            "traffic": {"enabled": false}})"}) {
    const Result<ExecutorConfig> config = parse(doc);
    ASSERT_TRUE(config.ok()) << config.error().to_string();
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow({&fig.instance}, {&schedule}, config.value());
    ASSERT_FALSE(run.ok()) << doc;
    EXPECT_EQ(run.error().code, Errc::kOutOfRange) << run.error().to_string();
  }
}

// A probe's outcome lands in the timeline bucket of its arrival time, and
// the timeline once grew to that bucket: a 1e7 ms link asked for gigabytes
// and aborted the process with std::bad_alloc. The timeline now stops at
// ConsistencyMonitor::kMaxTimelineBuckets and the run returns an error
// that names the limit.
TEST(ConfigTest, LateProbeArrivalsEndTheRunWithAnError) {
  const topo::Fig1 fig = topo::fig1();
  const update::Schedule schedule =
      plan(fig.instance, Algorithm::kWayUp).value().schedule;
  for (const char* doc :
       {R"({"traffic": {"link": {"kind": "constant", "ms": 1e7}}})",
        R"({"traffic": {"link": {"kind": "constant", "ms": 1e9}}})"}) {
    const Result<ExecutorConfig> config = parse(doc);
    ASSERT_TRUE(config.ok()) << config.error().to_string();
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow({&fig.instance}, {&schedule}, config.value());
    ASSERT_FALSE(run.ok()) << doc;
    EXPECT_EQ(run.error().code, Errc::kOutOfRange) << run.error().to_string();
    EXPECT_NE(run.error().to_string().find("65536 buckets"),
              std::string::npos)
        << run.error().to_string();
  }
}

// A document that sets one knob: {"key": value}, inside its block.
json::Value knob_document(const Knob& knob, json::Value value) {
  json::Object inner;
  inner.set(knob.key, std::move(value));
  if (knob.block == Knob::Block::kTop) return json::Value(std::move(inner));
  json::Object outer;
  outer.set(to_string(knob.block), json::Value(std::move(inner)));
  return json::Value(std::move(outer));
}

bool has_bound(const Knob& knob) {
  switch (knob.unit) {
    case Knob::Unit::kCount:
    case Knob::Unit::kMs:
    case Knob::Unit::kUs:
    case Knob::Unit::kFraction:
    case Knob::Unit::kRate: return true;
    default: return false;
  }
}

std::string render(const ServiceConfig& config) {
  return json::write(service_config_to_json(config));
}

Result<ServiceConfig> parse_knob(const Knob& knob, json::Value value) {
  return service_config_from_json(knob_document(knob, std::move(value)));
}

// Walks the knob list: every knob's default, lower and upper bound survive
// render -> parse unchanged, one step past a bound is kOutOfRange, a wrong
// JSON type is kParseError, and a knob's sim_cli flag reads a value as the
// document does and has a --help line.
TEST(ConfigTest, EveryKnobRoundTripsAndChecksItsBound) {
  const json::Value defaults = service_config_to_json(ServiceConfig{});
  const json::Value schedule =
      json::parse(R"({"events": [{"kind": "crash", "at_ms": 8, "node": 3,
                                  "down_ms": 5, "lose_state": true}]})")
          .value();
  const std::string usage = knob_flag_usage();
  ASSERT_EQ(knobs().size(), 39u);
  for (const Knob& knob : knobs()) {
    SCOPED_TRACE(knob.key);
    const json::Object& block =
        knob.block == Knob::Block::kTop
            ? defaults.as_object()
            : defaults.as_object().find(to_string(knob.block))->as_object();
    // An empty fault schedule is left out of the document.
    std::vector<json::Value> values;
    if (knob.unit == Knob::Unit::kFaults) {
      EXPECT_EQ(block.find(knob.key), nullptr);
      values.push_back(schedule);
    } else {
      ASSERT_NE(block.find(knob.key), nullptr);
      values.push_back(*block.find(knob.key));
    }
    if (has_bound(knob)) {
      values.push_back(json::Value(knob.lo));
      values.push_back(json::Value(knob.hi));
    }

    for (const json::Value& value : values) {
      SCOPED_TRACE(json::write(value));
      const Result<ServiceConfig> parsed = parse_knob(knob, value);
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
      const std::string rendered = render(parsed.value());
      const Result<ServiceConfig> reparsed =
          service_config_from_json(std::string_view(rendered));
      ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
      EXPECT_EQ(render(reparsed.value()), rendered);
      if (knob.block != Knob::Block::kService) {
        const Result<ExecutorConfig> exec =
            config_from_json(knob_document(knob, value));
        ASSERT_TRUE(exec.ok()) << exec.error().to_string();
        EXPECT_EQ(json::write(config_to_json(exec.value())),
                  json::write(config_to_json(parsed.value().exec)));
      }

      if (knob.flag == nullptr) continue;
      std::string text = value.is_string() ? value.as_string()
                                           : json::write(value);
      if (knob.unit == Knob::Unit::kFaults) {
        const std::string path = testing::TempDir() + "knob_faults.json";
        std::ofstream(path) << text;
        text = path;
      }
      ServiceConfig flagged;
      const Status set = set_knob_flag(flagged, knob.flag, text);
      ASSERT_TRUE(set.ok()) << set.error().to_string();
      EXPECT_EQ(render(flagged), render(parsed.value()));
    }

    if (has_bound(knob)) {
      const bool count = knob.unit == Knob::Unit::kCount;
      const double inf = std::numeric_limits<double>::infinity();
      const double below = count ? knob.lo - 1 : std::nextafter(knob.lo, -inf);
      const double above =
          count && knob.hi < static_cast<double>(json::kMaxExactInt)
              ? knob.hi + 1
              : std::nextafter(knob.hi, inf);
      for (const double outside : {below, above}) {
        const Result<ServiceConfig> parsed =
            parse_knob(knob, json::Value(outside));
        ASSERT_FALSE(parsed.ok()) << outside;
        EXPECT_EQ(parsed.error().code, Errc::kOutOfRange)
            << parsed.error().to_string();
      }
    }

    const Result<ServiceConfig> wrong = parse_knob(
        knob, knob.unit == Knob::Unit::kBool ? json::Value("true")
                                             : json::Value(true));
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.error().code, Errc::kParseError)
        << wrong.error().to_string();

    // The key means nothing outside its own block.
    Knob elsewhere = knob;
    elsewhere.block = knob.block == Knob::Block::kTop ? Knob::Block::kTraffic
                                                      : Knob::Block::kTop;
    const Result<ServiceConfig> misplaced = parse_knob(elsewhere, values[0]);
    ASSERT_FALSE(misplaced.ok());
    EXPECT_NE(misplaced.error().message.find("unknown"), std::string::npos)
        << misplaced.error().to_string();
    if (knob.flag != nullptr) {
      EXPECT_NE(knob.doc, nullptr);
      EXPECT_NE(usage.find(std::string(knob.flag) + " "), std::string::npos);
      EXPECT_NE(usage.find(knob.key), std::string::npos);
    }
  }
}

// strtod reads "nan", and NaN passes a `< 0` check: sim_cli once took
// these flags as 0 (no hold window, fault detection off, no horizon). JSON
// cannot carry NaN, so a flag value of "nan" is not a number.
TEST(ConfigTest, NanAndInfFlagValuesAreErrors) {
  for (const char* flag : {"--batch-window-ms", "--liveness-ms",
                           "--duration-ms", "--rate", "--flows"}) {
    for (const char* text : {"nan", "inf", "-nan"}) {
      ServiceConfig config;
      const Status set = set_knob_flag(config, flag, text);
      ASSERT_FALSE(set.ok()) << flag << " " << text;
      EXPECT_EQ(set.error().code, Errc::kParseError)
          << set.error().to_string();
      EXPECT_EQ(render(config), render(ServiceConfig{}));
    }
  }
  ServiceConfig config;
  EXPECT_EQ(set_knob_flag(config, "--no-such-flag", "1").error().code,
            Errc::kNotFound);
}

// --flows 1 sets one template (sim_cli once passed --flows on only above
// 1), and the template count and pool size have upper bounds: 2^53
// templates once threw std::bad_alloc.
TEST(ConfigTest, PoolKnobsAreBounded) {
  ServiceConfig config;
  ASSERT_TRUE(set_knob_flag(config, "--flows", "1").ok());
  EXPECT_EQ(config.flows, 1u);
  for (const char* doc :
       {R"({"service": {"flows": 9007199254740992, "target": 1}})",
        R"({"service": {"flows": 4097}})",
        R"({"service": {"pool_switches": 4294967296}})"}) {
    const Result<ServiceConfig> parsed =
        service_config_from_json(std::string_view(doc));
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.error().code, Errc::kOutOfRange)
        << parsed.error().to_string();
  }
  EXPECT_EQ(set_knob_flag(config, "--flows", "9223372036854775807")
                .error()
                .code,
            Errc::kOutOfRange);
}

}  // namespace
}  // namespace tsu::core
