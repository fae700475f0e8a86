#include "tsu/dataplane/monitor.hpp"

#include <sstream>

namespace tsu::dataplane {

const char* to_string(PacketOutcome outcome) noexcept {
  switch (outcome) {
    case PacketOutcome::kDelivered: return "delivered";
    case PacketOutcome::kBypassedWaypoint: return "bypassed-waypoint";
    case PacketOutcome::kLooped: return "looped";
    case PacketOutcome::kBlackholed: return "blackholed";
    case PacketOutcome::kTtlExpired: return "ttl-expired";
    case PacketOutcome::kFaultDropped: return "fault-dropped";
  }
  return "?";
}

double MonitorReport::violation_rate() const noexcept {
  if (total == 0) return 0;
  return static_cast<double>(bypassed + looped + blackholed + ttl_expired) /
         static_cast<double>(total);
}

double MonitorReport::bypass_rate() const noexcept {
  if (total == 0) return 0;
  return static_cast<double>(bypassed) / static_cast<double>(total);
}

std::string MonitorReport::to_string() const {
  std::ostringstream out;
  out << "packets=" << total << " delivered=" << delivered
      << " bypassed=" << bypassed << " looped=" << looped
      << " blackholed=" << blackholed << " ttl-expired=" << ttl_expired;
  if (fault_dropped != 0) out << " fault-dropped=" << fault_dropped;
  return out.str();
}

void ConsistencyMonitor::record(sim::SimTime at, PacketOutcome outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++report_.total;
  switch (outcome) {
    case PacketOutcome::kDelivered: ++report_.delivered; break;
    case PacketOutcome::kBypassedWaypoint: ++report_.bypassed; break;
    case PacketOutcome::kLooped: ++report_.looped; break;
    case PacketOutcome::kBlackholed: ++report_.blackholed; break;
    case PacketOutcome::kTtlExpired: ++report_.ttl_expired; break;
    case PacketOutcome::kFaultDropped: ++report_.fault_dropped; break;
  }
  // bucket_width == 0 disables the timeline: the open-loop service mode
  // runs unbounded sim horizons where a per-bucket vector would grow
  // without limit (and at / 0 would fault).
  if (bucket_width_ == 0) return;
  const sim::SimTime index = at / bucket_width_;
  if (index >= kMaxTimelineBuckets) {
    timeline_overflowed_.store(true, std::memory_order_relaxed);
    return;
  }
  const std::size_t bucket = static_cast<std::size_t>(index);
  if (bucket >= timeline_.size()) timeline_.resize(bucket + 1);
  Bucket& b = timeline_[bucket];
  switch (outcome) {
    case PacketOutcome::kDelivered: ++b.delivered; break;
    case PacketOutcome::kBypassedWaypoint: ++b.bypassed; break;
    case PacketOutcome::kLooped: ++b.looped; break;
    case PacketOutcome::kBlackholed:
    case PacketOutcome::kTtlExpired: ++b.blackholed; break;
    case PacketOutcome::kFaultDropped: break;  // outage, not a violation
  }
}

ConsistencyMonitor& MultiFlowMonitor::monitor(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it != flows_.end()) return it->second;
  // try_emplace: ConsistencyMonitor owns a mutex and cannot be moved.
  return flows_.try_emplace(flow, bucket_width_).first->second;
}

const ConsistencyMonitor* MultiFlowMonitor::find(FlowId flow) const noexcept {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? nullptr : &it->second;
}

MonitorReport MultiFlowMonitor::aggregate() const {
  MonitorReport sum;
  for (const auto& [flow, monitor] : flows_) {
    const MonitorReport& r = monitor.report();
    sum.total += r.total;
    sum.delivered += r.delivered;
    sum.bypassed += r.bypassed;
    sum.looped += r.looped;
    sum.blackholed += r.blackholed;
    sum.ttl_expired += r.ttl_expired;
    sum.fault_dropped += r.fault_dropped;
  }
  return sum;
}

std::string ConsistencyMonitor::timeline_to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const Bucket& b = timeline_[i];
    out << "[" << i << "] delivered=" << b.delivered;
    if (b.bypassed != 0) out << " BYPASSED=" << b.bypassed;
    if (b.looped != 0) out << " looped=" << b.looped;
    if (b.blackholed != 0) out << " dropped=" << b.blackholed;
    out << "\n";
  }
  return out.str();
}

}  // namespace tsu::dataplane
