#include "tsu/sim/distributions.hpp"

#include <cmath>
#include <sstream>

#include "tsu/sim/time.hpp"

namespace tsu::sim {

// Casting a double outside uint64_t's range (or NaN) is undefined
// behaviour; in-range amounts take the plain truncating cast.
Duration from_ns(double ns) noexcept {
  if (!(ns > 0)) return 0;
  if (ns >= static_cast<double>(kMaxDuration)) return kMaxDuration;
  return static_cast<Duration>(ns);
}

Duration from_ms(double ms) noexcept { return from_ns(ms * 1e6); }

Duration LatencyModel::sample(Rng& rng) const {
  double value = 0;
  switch (kind) {
    case LatencyKind::kConstant: value = a; break;
    case LatencyKind::kUniform: value = rng.uniform(a, b); break;
    case LatencyKind::kExponential: value = rng.exponential(a); break;
    case LatencyKind::kLognormal: value = rng.lognormal_median(a, b); break;
    case LatencyKind::kPareto: value = rng.pareto(c, a, b); break;
  }
  return from_ns(value);
}

Duration LatencyModel::min_delay() const noexcept {
  switch (kind) {
    case LatencyKind::kConstant:
    case LatencyKind::kUniform:
    case LatencyKind::kPareto:
      // sample() saturates a double >= a, so the saturated `a` lower-bounds
      // it.
      return from_ns(a);
    case LatencyKind::kExponential:
    case LatencyKind::kLognormal:
      return 0;
  }
  return 0;
}

Duration LatencyModel::max_delay() const noexcept {
  switch (kind) {
    case LatencyKind::kConstant:
      return from_ns(a);
    case LatencyKind::kUniform:
    case LatencyKind::kPareto:
      // Both draw below `b` in exact arithmetic; rounding can land a hair
      // above it, and the truncating conversion keeps that within ceil(b).
      return from_ns(std::ceil(b));
    case LatencyKind::kExponential:
    case LatencyKind::kLognormal:
      return kMaxDuration;
  }
  return kMaxDuration;
}

double LatencyModel::mean() const {
  switch (kind) {
    case LatencyKind::kConstant: return a;
    case LatencyKind::kUniform: return (a + b) / 2.0;
    case LatencyKind::kExponential: return a;
    case LatencyKind::kLognormal: return a * std::exp(b * b / 2.0);
    case LatencyKind::kPareto: {
      // Mean of a bounded Pareto on [a, b) with shape c.
      const double alpha = c;
      if (alpha == 1.0) return a * std::log(b / a) / (1.0 - a / b);
      const double la = std::pow(a, alpha);
      return la / (1.0 - la / std::pow(b, alpha)) * alpha /
             (alpha - 1.0) *
             (1.0 / std::pow(a, alpha - 1.0) -
              1.0 / std::pow(b, alpha - 1.0));
    }
  }
  return 0;
}

std::string LatencyModel::to_string() const {
  std::ostringstream out;
  switch (kind) {
    case LatencyKind::kConstant:
      out << "const(" << a / 1e6 << "ms)";
      break;
    case LatencyKind::kUniform:
      out << "uniform(" << a / 1e6 << ".." << b / 1e6 << "ms)";
      break;
    case LatencyKind::kExponential:
      out << "exp(mean=" << a / 1e6 << "ms)";
      break;
    case LatencyKind::kLognormal:
      out << "lognormal(median=" << a / 1e6 << "ms,sigma=" << b << ")";
      break;
    case LatencyKind::kPareto:
      out << "pareto(" << a / 1e6 << ".." << b / 1e6 << "ms,alpha=" << c
          << ")";
      break;
  }
  return out.str();
}

LatencyModel LatencyModel::constant(Duration value) {
  return LatencyModel{LatencyKind::kConstant, static_cast<double>(value), 0, 0};
}

LatencyModel LatencyModel::uniform(Duration lo, Duration hi) {
  TSU_ASSERT(lo <= hi);
  return LatencyModel{LatencyKind::kUniform, static_cast<double>(lo),
                      static_cast<double>(hi), 0};
}

LatencyModel LatencyModel::exponential(Duration mean) {
  TSU_ASSERT(mean > 0);
  return LatencyModel{LatencyKind::kExponential, static_cast<double>(mean), 0,
                      0};
}

LatencyModel LatencyModel::lognormal(Duration median, double sigma) {
  TSU_ASSERT(median > 0 && sigma >= 0);
  return LatencyModel{LatencyKind::kLognormal, static_cast<double>(median),
                      sigma, 0};
}

LatencyModel LatencyModel::pareto(Duration lo, Duration hi, double alpha) {
  TSU_ASSERT(lo > 0 && lo < hi && alpha > 0);
  return LatencyModel{LatencyKind::kPareto, static_cast<double>(lo),
                      static_cast<double>(hi), alpha};
}

}  // namespace tsu::sim
