#include "tsu/topo/arrivals.hpp"

#include <numeric>
#include <utility>

#include "tsu/util/log.hpp"

namespace tsu::topo {

ArrivalProcess ArrivalProcess::poisson(double rate_per_sec) {
  TSU_ASSERT_MSG(rate_per_sec > 0, "poisson arrival rate must be positive");
  ArrivalProcess p;
  p.kind_ = Kind::kPoisson;
  p.gap_model_ =
      sim::LatencyModel::exponential(sim::from_ns(1e9 / rate_per_sec));
  return p;
}

ArrivalProcess ArrivalProcess::uniform_spaced(sim::Duration gap) {
  TSU_ASSERT_MSG(gap > 0, "uniform arrival gap must be positive");
  ArrivalProcess p;
  p.kind_ = Kind::kUniform;
  p.gap_model_ = sim::LatencyModel::constant(gap);
  return p;
}

ArrivalProcess ArrivalProcess::trace(std::vector<sim::Duration> interarrivals,
                                     bool cycle) {
  TSU_ASSERT_MSG(!interarrivals.empty(), "arrival trace must be non-empty");
  ArrivalProcess p;
  p.kind_ = Kind::kTrace;
  p.trace_ = std::move(interarrivals);
  p.cycle_ = cycle;
  return p;
}

sim::Duration ArrivalProcess::next_gap(Rng& rng) {
  TSU_ASSERT_MSG(!exhausted(), "next_gap() on an exhausted arrival trace");
  ++produced_;
  if (kind_ != Kind::kTrace) return gap_model_.sample(rng);
  const sim::Duration gap = trace_[trace_pos_];
  ++trace_pos_;
  if (cycle_ && trace_pos_ == trace_.size()) trace_pos_ = 0;
  return gap;
}

bool ArrivalProcess::exhausted() const noexcept {
  return kind_ == Kind::kTrace && !cycle_ && trace_pos_ >= trace_.size();
}

double ArrivalProcess::rate_per_sec() const noexcept {
  if (kind_ != Kind::kTrace) {
    const double mean_ns = gap_model_.mean();
    return mean_ns > 0 ? 1e9 / mean_ns : 0;
  }
  const double total = std::accumulate(trace_.begin(), trace_.end(), 0.0);
  return total > 0 ? static_cast<double>(trace_.size()) * 1e9 / total : 0;
}

}  // namespace tsu::topo
