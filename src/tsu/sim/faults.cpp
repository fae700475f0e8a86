#include "tsu/sim/faults.hpp"

#include <algorithm>
#include <cmath>

#include "tsu/util/strings.hpp"

namespace tsu::sim {

namespace {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Result<FaultKind> kind_from_string(const std::string& name) {
  if (name == "crash") return FaultKind::kSwitchCrash;
  if (name == "link_down") return FaultKind::kLinkDown;
  if (name == "blackhole") return FaultKind::kBlackhole;
  return make_error(Errc::kParseError,
                    "unknown fault kind '" + name +
                        "' (crash | link_down | blackhole)");
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kSwitchCrash: return "crash";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kBlackhole: return "blackhole";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::string out = sim::to_string(kind);
  out += " node=" + std::to_string(node);
  out += " at=" + format_double(sim::to_ms(at), 3) + "ms";
  switch (kind) {
    case FaultKind::kSwitchCrash:
      out += " down=" + format_double(sim::to_ms(down_for), 3) + "ms";
      out += lose_state ? " lose_state" : " retained_tcam";
      break;
    case FaultKind::kLinkDown:
      out += " down=" + format_double(sim::to_ms(down_for), 3) + "ms";
      break;
    case FaultKind::kBlackhole:
      out += " frames=" + std::to_string(frames);
      break;
  }
  return out;
}

void FaultSchedule::add(FaultEvent event) {
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        if (a.at != b.at) return a.at < b.at;
        if (a.node != b.node) return a.node < b.node;
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
      });
  events_.insert(pos, std::move(event));
}

json::Value FaultSchedule::to_json() const {
  json::Array events;
  events.reserve(events_.size());
  for (const FaultEvent& event : events_) {
    json::Object obj;
    obj.set("kind", json::Value(sim::to_string(event.kind)));
    obj.set("at_ms", json::Value(sim::to_ms(event.at)));
    obj.set("node", json::Value(static_cast<std::int64_t>(event.node)));
    switch (event.kind) {
      case FaultKind::kSwitchCrash:
        obj.set("down_ms", json::Value(sim::to_ms(event.down_for)));
        obj.set("lose_state", json::Value(event.lose_state));
        break;
      case FaultKind::kLinkDown:
        obj.set("down_ms", json::Value(sim::to_ms(event.down_for)));
        break;
      case FaultKind::kBlackhole:
        obj.set("frames",
                json::Value(static_cast<std::int64_t>(event.frames)));
        break;
    }
    events.push_back(json::Value(std::move(obj)));
  }
  json::Object root;
  root.set("events", json::Value(std::move(events)));
  return json::Value(std::move(root));
}

Result<FaultSchedule> FaultSchedule::from_json(std::string_view text) {
  Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return from_json(doc.value());
}

Result<FaultSchedule> FaultSchedule::from_json(const json::Value& value) {
  const json::Array* events = nullptr;
  if (value.is_array()) {
    events = &value.as_array();
  } else if (value.is_object()) {
    const json::Value* field = value.as_object().find("events");
    if (field == nullptr || !field->is_array())
      return make_error(Errc::kParseError,
                        "fault schedule object needs an 'events' array");
    events = &field->as_array();
  } else {
    return make_error(Errc::kParseError,
                      "fault schedule must be an array or {\"events\": []}");
  }

  FaultSchedule schedule;
  for (const json::Value& entry : *events) {
    if (!entry.is_object())
      return make_error(Errc::kParseError, "fault event must be an object");
    const json::Object& obj = entry.as_object();
    FaultEvent event;

    const json::Value* kind = obj.find("kind");
    if (kind == nullptr || !kind->is_string())
      return make_error(Errc::kParseError, "fault event needs string 'kind'");
    Result<FaultKind> parsed = kind_from_string(kind->as_string());
    if (!parsed.ok()) return parsed.error();
    event.kind = parsed.value();

    const json::Value* at = obj.find("at_ms");
    if (at == nullptr || !at->is_number() || at->as_double() < 0)
      return make_error(Errc::kParseError,
                        "fault event needs numeric 'at_ms' >= 0");
    if (at->as_double() > to_ms(kMaxDuration))
      return make_error(Errc::kOutOfRange,
                        "'at_ms' is beyond the simulated time range");
    event.at = sim::from_ms(at->as_double());

    const json::Value* node = obj.find("node");
    if (node == nullptr)
      return make_error(Errc::kParseError, "fault event needs 'node'");
    const Result<std::int64_t> node_id = node->int_in("node", 0, 0xffffffff);
    if (!node_id.ok()) return node_id.error();
    event.node = static_cast<NodeId>(node_id.value());

    if (event.kind == FaultKind::kBlackhole) {
      const json::Value* frames = obj.find("frames");
      if (frames != nullptr) {
        const Result<std::int64_t> n =
            frames->int_in("frames", 1, json::kMaxExactInt);
        if (!n.ok()) return n.error();
        event.frames = static_cast<std::size_t>(n.value());
      }
    } else {
      const json::Value* down = obj.find("down_ms");
      if (down == nullptr || !down->is_number() || down->as_double() <= 0)
        return make_error(Errc::kParseError,
                          "crash/link_down needs numeric 'down_ms' > 0");
      if (down->as_double() > to_ms(kMaxDuration))
        return make_error(Errc::kOutOfRange,
                          "'down_ms' is beyond the simulated time range");
      event.down_for = sim::from_ms(down->as_double());
      if (event.kind == FaultKind::kSwitchCrash) {
        const json::Value* lose = obj.find("lose_state");
        if (lose != nullptr) {
          if (!lose->is_bool())
            return make_error(Errc::kParseError,
                              "'lose_state' must be a bool");
          event.lose_state = lose->as_bool();
        }
      }
    }
    schedule.add(std::move(event));
  }
  return schedule;
}

FaultSchedule FaultSchedule::random(std::uint64_t seed,
                                    const ChaosOptions& options) {
  TSU_ASSERT_MSG(options.node_count > 0, "chaos needs a node population");
  Rng rng(seed ^ 0x0fa17u);
  FaultSchedule schedule;

  const auto pick_at = [&]() {
    const double span = std::max(options.horizon_ms, 0.001);
    const double at_ms =
        options.start_ms + span * static_cast<double>(rng.uniform_u64(
                                      0, 1'000'000)) / 1'000'000.0;
    return sim::from_ms(at_ms);
  };
  const auto pick_down = [&]() {
    const double lo = std::max(options.min_down_ms, 0.001);
    const double hi = std::max(options.max_down_ms, lo);
    const double down_ms =
        lo + (hi - lo) * static_cast<double>(rng.uniform_u64(0, 1'000'000)) /
                 1'000'000.0;
    return sim::from_ms(down_ms);
  };

  for (std::size_t i = 0; i < options.crashes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kSwitchCrash;
    event.at = pick_at();
    event.node = static_cast<NodeId>(rng.index(options.node_count));
    event.down_for = pick_down();
    event.lose_state = !rng.bernoulli(options.retained_tcam_fraction);
    schedule.add(std::move(event));
  }
  for (std::size_t i = 0; i < options.link_downs; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kLinkDown;
    event.at = pick_at();
    event.node = static_cast<NodeId>(rng.index(options.node_count));
    event.down_for = pick_down();
    schedule.add(std::move(event));
  }
  for (std::size_t i = 0; i < options.blackholes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kBlackhole;
    event.at = pick_at();
    event.node = static_cast<NodeId>(rng.index(options.node_count));
    event.frames = 1 + rng.index(std::max<std::size_t>(
                           options.max_blackhole_frames, 1));
    schedule.add(std::move(event));
  }
  return schedule;
}

double FaultStats::recovery_p50_ms() const { return percentile(recovery_ms, 0.5); }
double FaultStats::recovery_p99_ms() const { return percentile(recovery_ms, 0.99); }

void FaultStats::merge(const FaultStats& other) {
  crashes += other.crashes;
  link_downs += other.link_downs;
  blackholes += other.blackholes;
  frames_lost += other.frames_lost;
  timeouts += other.timeouts;
  resyncs += other.resyncs;
  resync_frames += other.resync_frames;
  rollbacks += other.rollbacks;
  retries += other.retries;
  resubmissions += other.resubmissions;
  recovery_ms.insert(recovery_ms.end(), other.recovery_ms.begin(),
                     other.recovery_ms.end());
}

}  // namespace tsu::sim
