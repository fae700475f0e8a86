#include "tsu/core/config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

namespace tsu::core {

namespace {

Result<double> number_field(const json::Object& obj, const char* key,
                            double minimum) {
  const json::Value* value = obj.find(key);
  if (value == nullptr)
    return make_error(Errc::kParseError,
                      std::string("missing field '") + key + "'");
  if (!value->is_number())
    return make_error(Errc::kParseError,
                      std::string("field '") + key + "' must be a number");
  const double v = value->as_double();
  if (v < minimum)
    return make_error(Errc::kOutOfRange,
                      std::string("field '") + key + "' below minimum");
  return v;
}

sim::Duration ms(double value) { return sim::from_ms(value); }

}  // namespace

Result<sim::LatencyModel> latency_from_json(const json::Value& value) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "latency model must be an object");
  const json::Object& obj = value.as_object();
  const json::Value* kind = obj.find("kind");
  if (kind == nullptr || !kind->is_string())
    return make_error(Errc::kParseError, "latency model needs string 'kind'");
  const std::string& name = kind->as_string();

  if (name == "constant") {
    Result<double> v = number_field(obj, "ms", 0);
    if (!v.ok()) return v.error();
    return sim::LatencyModel::constant(ms(v.value()));
  }
  if (name == "uniform") {
    Result<double> lo = number_field(obj, "lo_ms", 0);
    if (!lo.ok()) return lo.error();
    Result<double> hi = number_field(obj, "hi_ms", 0);
    if (!hi.ok()) return hi.error();
    if (hi.value() < lo.value())
      return make_error(Errc::kInvalidArgument, "uniform: hi_ms < lo_ms");
    return sim::LatencyModel::uniform(ms(lo.value()), ms(hi.value()));
  }
  // The checks below run on the converted nanoseconds: a positive amount
  // can still truncate to 0 ns, and two distinct huge ones can saturate to
  // the same sim::kMaxDuration.
  if (name == "exponential") {
    Result<double> mean = number_field(obj, "mean_ms", 0);
    if (!mean.ok()) return mean.error();
    const sim::Duration mean_ns = ms(mean.value());
    if (mean_ns == 0)
      return make_error(Errc::kInvalidArgument,
                        "exponential: mean_ms must be at least 1 ns");
    return sim::LatencyModel::exponential(mean_ns);
  }
  if (name == "lognormal") {
    Result<double> median = number_field(obj, "median_ms", 0);
    if (!median.ok()) return median.error();
    Result<double> sigma = number_field(obj, "sigma", 0);
    if (!sigma.ok()) return sigma.error();
    const sim::Duration median_ns = ms(median.value());
    if (median_ns == 0)
      return make_error(Errc::kInvalidArgument,
                        "lognormal: median_ms must be at least 1 ns");
    return sim::LatencyModel::lognormal(median_ns, sigma.value());
  }
  if (name == "pareto") {
    Result<double> lo = number_field(obj, "lo_ms", 0);
    if (!lo.ok()) return lo.error();
    Result<double> hi = number_field(obj, "hi_ms", 0);
    if (!hi.ok()) return hi.error();
    Result<double> alpha = number_field(obj, "alpha", 0);
    if (!alpha.ok()) return alpha.error();
    const sim::Duration lo_ns = ms(lo.value());
    const sim::Duration hi_ns = ms(hi.value());
    if (lo_ns == 0 || hi_ns <= lo_ns || alpha.value() <= 0)
      return make_error(Errc::kInvalidArgument,
                        "pareto: need 1 ns <= lo < hi and alpha > 0");
    return sim::LatencyModel::pareto(lo_ns, hi_ns, alpha.value());
  }
  return make_error(Errc::kParseError,
                    "unknown latency kind '" + name + "'");
}

namespace {

json::Value latency_to_json(const sim::LatencyModel& model) {
  json::Object obj;
  switch (model.kind) {
    case sim::LatencyKind::kConstant:
      obj.set("kind", json::Value("constant"));
      obj.set("ms", json::Value(model.a / 1e6));
      break;
    case sim::LatencyKind::kUniform:
      obj.set("kind", json::Value("uniform"));
      obj.set("lo_ms", json::Value(model.a / 1e6));
      obj.set("hi_ms", json::Value(model.b / 1e6));
      break;
    case sim::LatencyKind::kExponential:
      obj.set("kind", json::Value("exponential"));
      obj.set("mean_ms", json::Value(model.a / 1e6));
      break;
    case sim::LatencyKind::kLognormal:
      obj.set("kind", json::Value("lognormal"));
      obj.set("median_ms", json::Value(model.a / 1e6));
      obj.set("sigma", json::Value(model.b));
      break;
    case sim::LatencyKind::kPareto:
      obj.set("kind", json::Value("pareto"));
      obj.set("lo_ms", json::Value(model.a / 1e6));
      obj.set("hi_ms", json::Value(model.b / 1e6));
      obj.set("alpha", json::Value(model.c));
      break;
  }
  return json::Value(std::move(obj));
}

using Block = Knob::Block;
using Unit = Knob::Unit;

constexpr double kMaxInt = static_cast<double>(json::kMaxExactInt);
// A number knob with no upper bound takes any finite value.
constexpr double kNoMax = std::numeric_limits<double>::max();

// The knob list: every config knob, declared once, in the order the
// renderers write them. Parsing, rendering, the unknown-key errors and
// sim_cli's knob flags all walk it; the defaults are the structs'
// initializers. `Service` is ServiceConfig, const or not.
template <typename Service, typename Visit>
void visit_knobs(Service& config, Visit&& visit) {
  using enum Knob::Block;
  using enum Knob::Unit;
  auto& exec = config.exec;
  auto& sw = exec.switch_config;
  auto& ctl = exec.controller;
  visit({.key = "seed", .unit = kCount, .hi = kMaxInt}, exec.seed);
  visit({.key = "latency", .block = kChannel, .unit = kLatency},
        exec.channel.latency);
  // A loss of 1 would retransmit every frame forever, so the bound is the
  // largest double below 1.
  visit({.key = "loss", .block = kChannel, .unit = kFraction,
         .hi = 1 - std::numeric_limits<double>::epsilon() / 2},
        exec.channel.loss_probability);
  visit({.key = "retransmit_timeout_ms", .block = kChannel, .unit = kMs,
         .hi = kNoMax},
        exec.channel.retransmit_timeout);
  visit({.key = "install", .block = kSwitch, .unit = kLatency},
        sw.install_latency);
  visit({.key = "barrier_us", .block = kSwitch, .unit = kUs, .hi = kNoMax},
        sw.barrier_processing);
  visit({.key = "processing_us", .block = kSwitch, .unit = kUs, .hi = kNoMax},
        sw.message_processing);
  visit({.key = "batch_replies", .block = kSwitch, .unit = kBool,
         .flag = "--batch-replies",
         .doc = "coalesce same-instant switch->controller replies"},
        sw.batch_replies);
  visit({.key = "use_barriers", .unit = kBool}, ctl.use_barriers);
  visit({.key = "max_in_flight", .unit = kCount, .lo = 1, .hi = kMaxInt,
         .flag = "--max-in-flight",
         .doc = "updates in flight per shard; 1 is the paper's queue"},
        ctl.max_in_flight);
  visit({.key = "batch_mode", .unit = kEnum, .flag = "--batch-mode",
         .doc = "adaptive packs cross-flow frames, holding longer as the "
                "queue fills"},
        ctl.batch_mode);
  visit({.key = "batch_window_ms", .unit = kMs, .hi = kNoMax,
         .flag = "--batch-window-ms", .doc = "the longest adaptive hold"},
        ctl.batch_window);
  visit({.key = "batch_bytes", .unit = kCount, .lo = 1, .hi = kMaxInt,
         .flag = "--batch-bytes",
         .doc = "encoded bytes that flush an adaptive outbox"},
        ctl.batch_bytes);
  visit({.key = "admission", .unit = kEnum, .flag = "--admission",
         .doc = "conflict_aware admits past blocked heads by rule conflicts"},
        ctl.admission);
  // A shard index must fit the xid's shard field.
  visit({.key = "shards", .unit = kCount, .lo = 1, .hi = proto::kMaxXidShards,
         .flag = "--shards",
         .doc = "controller shards; cross-shard rounds sync through a "
                "coordinator"},
        ctl.shards);
  visit({.key = "partition", .unit = kEnum, .flag = "--partition",
         .doc = "switch-to-shard map; greedy_cut minimizes the cross-shard "
                "cut"},
        ctl.partition);
  visit({.key = "exec", .unit = kEnum, .flag = "--exec",
         .doc = "parallel steps shards on threads, bit-identical results"},
        ctl.exec);
  visit({.key = "threads", .unit = kCount, .hi = kMaxInt, .flag = "--threads",
         .doc = "parallel workers (0: min(shards, hardware threads))"},
        ctl.threads);
  visit({.key = "flow", .unit = kCount, .hi = kMaxInt}, exec.flow);
  visit({.key = "priority", .unit = kCount, .hi = 0xffff}, exec.priority);
  visit({.key = "interval_ms", .unit = kMs, .hi = kNoMax}, exec.interval);
  visit({.key = "liveness_timeout_ms", .unit = kMs, .hi = kNoMax,
         .flag = "--liveness-ms", .doc = "fault-detection timeout (0: off)"},
        ctl.liveness_timeout);
  visit({.key = "failure_response", .unit = kEnum,
         .flag = "--failure-response",
         .doc = "on a liveness timeout, retry or roll the update back"},
        ctl.failure_response);
  visit({.key = "resubmit", .unit = kBool}, ctl.resubmit_after_rollback);
  visit({.key = "faults", .unit = kFaults, .flag = "--faults",
         .doc = "replay switch crashes, link outages and frame blackholes"},
        exec.faults);
  visit({.key = "enabled", .block = kTraffic, .unit = kBool},
        exec.with_traffic);
  visit({.key = "interarrival", .block = kTraffic, .unit = kLatency},
        exec.traffic_interarrival);
  visit({.key = "link", .block = kTraffic, .unit = kLatency},
        exec.link_latency);
  visit({.key = "ttl", .block = kTraffic, .unit = kCount, .lo = 1, .hi = 1024},
        exec.ttl);
  visit({.key = "warmup_ms", .block = kTraffic, .unit = kMs, .hi = kNoMax},
        exec.warmup);
  visit({.key = "drain_ms", .block = kTraffic, .unit = kMs, .hi = kNoMax},
        exec.drain);
  // Template i spans node ids up to 6i + 5 at 16 B each per direction
  // (topo::pool_workload, update::Instance), so 4096 templates hold at most
  // 1.5 GiB.
  visit({.key = "flows", .block = kService, .unit = kCount, .lo = 1,
         .hi = 4096, .flag = "--flows",
         .doc = "service templates, or multi-flow engine flows if above 1"},
        config.flows);
  // Node ids run below pool_switches and must fit the 32-bit NodeId below
  // kInvalidNode.
  visit({.key = "pool_switches", .block = kService, .unit = kCount,
         .lo = kMinPoolSwitches, .hi = kInvalidNode, .flag = "--switches",
         .doc = "switches the templates share (multi-flow: 6 per flow)"},
        config.pool_switches);
  visit({.key = "rate_per_sec", .block = kService, .unit = kRate,
         .lo = std::numeric_limits<double>::denorm_min(),
         .hi = kMaxArrivalRate, .flag = "--rate",
         .doc = "Poisson arrivals per second"},
        config.arrival_rate_per_sec);
  visit({.key = "horizon_ms", .block = kService, .unit = kMs, .hi = kNoMax,
         .flag = "--duration-ms", .doc = "stop arrivals at this sim time "
                                         "(0: none)"},
        config.horizon);
  visit({.key = "target", .block = kService, .unit = kCount, .hi = kMaxInt,
         .flag = "--target",
         .doc = "stop arrivals once this many are accepted (0: none)"},
        config.target_completions);
  visit({.key = "max_pending", .block = kService, .unit = kCount, .lo = 1,
         .hi = kMaxInt, .flag = "--max-pending",
         .doc = "pending backlog; arrivals beyond it are shed"},
        config.max_pending);
  visit({.key = "snapshot_interval_ms", .block = kService, .unit = kMs,
         .hi = kNoMax},
        config.snapshot_interval);
  visit({.key = "snapshot_window", .block = kService, .unit = kCount,
         .lo = 1, .hi = kMaxSnapshotWindow},
        config.snapshot_window);
}

// An inclusive bound, or its outer neighbour as an open end where that
// reads shorter: a lower bound of 5e-324 prints as "(0", and kNoMax as
// "inf)".
std::string bound_text(double bound, bool lower) {
  const double inf = std::numeric_limits<double>::infinity();
  const double outer = std::nextafter(bound, lower ? -inf : inf);
  const std::string closed = json::write(json::Value(bound));
  const std::string open = json::write(json::Value(outer));
  if (open.size() < closed.size()) return lower ? "(" + open : open + ")";
  return lower ? "[" + closed : closed + "]";
}

std::string range_text(const Knob& knob) {
  const std::string lo = bound_text(knob.lo, true);
  const std::string hi = bound_text(knob.hi, false);
  return "in " + lo + ", " + hi;
}

// An enum knob's names are its to_string's, in value order; to_string
// answers "?" past the last value.
template <typename E>
const char* enum_name(unsigned value) {
  const char* name = to_string(static_cast<E>(value));
  return std::string_view(name) == "?" ? nullptr : name;
}

template <typename E>
std::string enum_names(std::string_view separator) {
  std::string names;
  for (unsigned i = 0; enum_name<E>(i) != nullptr; ++i)
    names.append(i == 0 ? "" : separator).append(enum_name<E>(i));
  return names;
}

Error wrong_type(const Knob& knob, const char* type) {
  return make_error(Errc::kParseError,
                    std::string("'") + knob.key + "' must be " + type);
}

// Sets `field` from the knob's JSON value.
template <typename T>
Status read_knob(const Knob& knob, const json::Value& value, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!value.is_bool()) return wrong_type(knob, "a bool");
    field = value.as_bool();
  } else if constexpr (std::is_enum_v<T>) {
    if (!value.is_string()) return wrong_type(knob, "a string");
    for (unsigned i = 0; enum_name<T>(i) != nullptr; ++i) {
      if (value.as_string() == enum_name<T>(i)) {
        field = static_cast<T>(i);
        return Status{};
      }
    }
    return make_error(Errc::kParseError,
                      std::string("unknown ") + knob.key + " '" +
                          value.as_string() + "' (" + enum_names<T>(" | ") +
                          ")");
  } else if constexpr (std::is_same_v<T, sim::LatencyModel>) {
    Result<sim::LatencyModel> model = latency_from_json(value);
    if (!model.ok()) return model.error();
    field = model.value();
  } else if constexpr (std::is_same_v<T, sim::FaultSchedule>) {
    Result<sim::FaultSchedule> schedule = sim::FaultSchedule::from_json(value);
    if (!schedule.ok()) return schedule.error();
    field = std::move(schedule).value();
  } else if (knob.unit == Unit::kCount) {
    const Result<std::int64_t> n =
        value.int_in(knob.key, static_cast<std::int64_t>(knob.lo),
                     static_cast<std::int64_t>(knob.hi));
    if (!n.ok()) return n.error();
    field = static_cast<T>(n.value());
  } else {
    if (!value.is_number()) return wrong_type(knob, "a number");
    const double v = value.as_double();
    if (!(v >= knob.lo && v <= knob.hi))
      return make_error(Errc::kOutOfRange, std::string("'") + knob.key +
                                               "' must be a number " +
                                               range_text(knob));
    if constexpr (std::is_floating_point_v<T>)
      field = v;
    else
      field = knob.unit == Unit::kMs ? ms(v) : sim::from_ns(v * 1e3);
  }
  return Status{};
}

// The knob's JSON value; null leaves the key out.
template <typename T>
json::Value write_knob(const Knob& knob, const T& field) {
  if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>) {
    return json::Value(field);
  } else if constexpr (std::is_enum_v<T>) {
    return json::Value(to_string(field));
  } else if constexpr (std::is_same_v<T, sim::LatencyModel>) {
    return latency_to_json(field);
  } else if constexpr (std::is_same_v<T, sim::FaultSchedule>) {
    // Written only when non-empty, so fault-free configs stay byte-stable.
    return field.empty() ? json::Value() : field.to_json();
  } else if (knob.unit == Unit::kMs) {
    return json::Value(sim::to_ms(field));
  } else if (knob.unit == Unit::kUs) {
    return json::Value(sim::to_us(field));
  } else {
    return json::Value(static_cast<std::int64_t>(field));
  }
}

Status set_knob(ServiceConfig& config, Block block, std::string_view key,
                const json::Value& value) {
  Status status = make_error(Errc::kParseError,
                             std::string("unknown ") + to_string(block) +
                                 " field '" + std::string(key) + "'");
  visit_knobs(config, [&](const Knob& knob, auto& field) {
    if (knob.block == block && key == knob.key)
      status = read_knob(knob, value, field);
  });
  return status;
}

// Reads a document onto `config`; `with_service` admits the "service"
// block.
Status read_document(const json::Value& doc, ServiceConfig& config,
                     bool with_service) {
  if (!doc.is_object())
    return make_error(Errc::kParseError, "config must be an object");
  for (const auto& [key, value] : doc.as_object()) {
    Block block = Block::kTop;
    for (const Block b : {Block::kChannel, Block::kSwitch, Block::kTraffic,
                          Block::kService})
      if (key == to_string(b)) block = b;
    if (block == Block::kTop) {
      if (Status s = set_knob(config, block, key, value); !s.ok()) return s;
      continue;
    }
    // The open-loop block belongs to the service document; rejecting it
    // here with a pointer beats the generic unknown-key error.
    if (block == Block::kService && !with_service)
      return make_error(Errc::kParseError,
                        "'service' requires the service entry point "
                        "(service_config_from_json)");
    if (!value.is_object())
      return make_error(Errc::kParseError,
                        "'" + key + "' must be an object");
    for (const auto& [inner, inner_value] : value.as_object())
      if (Status s = set_knob(config, block, inner, inner_value); !s.ok())
        return s;
  }
  return Status{};
}

json::Value write_document(const ServiceConfig& config, bool with_service) {
  json::Object root;
  visit_knobs(config, [&](const Knob& knob, const auto& field) {
    if (knob.block == Block::kService && !with_service) return;
    json::Value value = write_knob(knob, field);
    if (value.is_null()) return;
    json::Object* object = &root;
    if (knob.block != Block::kTop) {
      json::Value* block = root.find(to_string(knob.block));
      if (block == nullptr)
        block = &root.set(to_string(knob.block), json::Object{});
      object = &block->as_object();
    }
    object->set(knob.key, std::move(value));
  });
  return json::Value(std::move(root));
}

// The JSON value a flag's text stands for: what the text parses as, else
// the text as a string. A kFaults flag names a JSON file instead.
Result<json::Value> flag_value(const Knob& knob, std::string_view text) {
  if (knob.unit != Unit::kFaults) {
    Result<json::Value> parsed = json::parse(text);
    if (parsed.ok()) return parsed;
    return json::Value(std::string(text));
  }
  std::ifstream file{std::string(text)};
  if (!file)
    return make_error(Errc::kNotFound, "cannot open " + std::string(text));
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return json::parse(buffer.str());
}

}  // namespace

const char* to_string(Knob::Block block) noexcept {
  switch (block) {
    case Block::kTop: return "config";
    case Block::kChannel: return "channel";
    case Block::kSwitch: return "switch";
    case Block::kTraffic: return "traffic";
    case Block::kService: return "service";
  }
  return "?";
}

Result<ExecutorConfig> config_from_json(std::string_view text) {
  Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return config_from_json(doc.value());
}

Result<ExecutorConfig> config_from_json(const json::Value& value) {
  ServiceConfig config;
  if (Status s = read_document(value, config, false); !s.ok())
    return s.error();
  return std::move(config.exec);
}

json::Value config_to_json(const ExecutorConfig& config) {
  ServiceConfig service;
  service.exec = config;
  return write_document(service, false);
}

Result<ServiceConfig> service_config_from_json(std::string_view text) {
  Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return service_config_from_json(doc.value());
}

Result<ServiceConfig> service_config_from_json(const json::Value& value) {
  ServiceConfig config;
  if (Status s = read_document(value, config, true); !s.ok())
    return s.error();
  return config;
}

json::Value service_config_to_json(const ServiceConfig& config) {
  return write_document(config, true);
}

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> list = [] {
    std::vector<Knob> all;
    const ServiceConfig defaults;
    visit_knobs(defaults, [&](const Knob& knob, const auto&) {
      all.push_back(knob);
    });
    return all;
  }();
  return list;
}

Status set_knob_flag(ServiceConfig& config, std::string_view flag,
                     std::string_view value) {
  Status status = make_error(Errc::kNotFound,
                             "unknown flag '" + std::string(flag) + "'");
  visit_knobs(config, [&](const Knob& knob, auto& field) {
    if (knob.flag == nullptr || flag != knob.flag) return;
    const Result<json::Value> parsed = flag_value(knob, value);
    status = parsed.ok() ? read_knob(knob, parsed.value(), field)
                         : Status(parsed.error());
  });
  return status;
}

std::string knob_flag_usage() {
  std::string out;
  const ServiceConfig defaults;
  visit_knobs(defaults, [&](const Knob& knob, const auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if (knob.flag == nullptr) return;
    out.append("  ").append(knob.flag);
    std::string values;
    if constexpr (std::is_enum_v<T>) {
      out.append(" ").append(enum_names<T>("|"));
    } else if (knob.unit == Unit::kCount) {
      out.append(" N");
      values = ", an integer " + range_text(knob);
    } else if (knob.unit == Unit::kFaults) {
      out.append(" FILE.json");
    } else if (knob.unit != Unit::kBool) {
      out.append(" X");
      values = ", a number " + range_text(knob);
    }
    out.append("  (");
    if (knob.block != Block::kTop)
      out.append(to_string(knob.block)).append(".");
    out.append(knob.key).append(values).append(")\n      ");
    out.append(knob.doc).append("\n");
  });
  return out;
}

}  // namespace tsu::core
