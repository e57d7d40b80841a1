#include "cache/compiled_mrc.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cache/miss_ratio_curve.h"
#include "common/logging.h"

namespace copart {
namespace {

// Fritsch-Carlson end-slope: one-sided three-point estimate, clipped so the
// interpolant stays monotone in the first/last segment.
double EndSlope(double h0, double h1, double d0, double d1) {
  double m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
  if (m * d0 <= 0.0) {
    return 0.0;
  }
  if (d0 * d1 < 0.0 && std::abs(m) > 3.0 * std::abs(d0)) {
    return 3.0 * d0;
  }
  return m;
}

}  // namespace

CompiledMrc::CompiledMrc(const ReuseProfile& profile,
                         const CompiledMrcOptions& options) {
  CHECK_GE(options.samples_per_decade, 4u);
  CHECK_GT(options.min_capacity_bytes, 0u);

  // Extend the grid past the total footprint so the flat tail (where only
  // streaming misses remain) is inside the table, not in the fallback.
  uint64_t total_ws = 0;
  for (const ReuseComponent& component : profile.components()) {
    total_ws += component.working_set_bytes;
  }
  min_capacity_bytes_ = options.min_capacity_bytes;
  max_capacity_bytes_ =
      std::max(options.max_capacity_bytes,
               std::max(total_ws * 8, min_capacity_bytes_ * 2));

  const double lo = std::log(static_cast<double>(min_capacity_bytes_));
  const double hi = std::log(static_cast<double>(max_capacity_bytes_));
  const double decades = (hi - lo) / std::log(10.0);
  const size_t uniform_count =
      2 + static_cast<size_t>(decades * options.samples_per_decade);

  x_.reserve(uniform_count + profile.components().size() + 1);
  const double step = (hi - lo) / static_cast<double>(uniform_count - 1);
  for (size_t i = 0; i < uniform_count; ++i) {
    x_.push_back(lo + step * static_cast<double>(i));
  }
  x_.back() = hi;
  // Knots at the exact curve's curvature spikes: each component's working
  // set and the total footprint (the hard kink of stream-free mixtures).
  for (const ReuseComponent& component : profile.components()) {
    const double knot = std::log(
        static_cast<double>(component.working_set_bytes));
    if (knot > lo && knot < hi) {
      x_.push_back(knot);
    }
  }
  if (total_ws > 0) {
    const double knot = std::log(static_cast<double>(total_ws));
    if (knot > lo && knot < hi) {
      x_.push_back(knot);
    }
  }
  std::sort(x_.begin(), x_.end());

  // The curve is solved at integer byte counts, so nodes must be deduped in
  // capacity space, not log space: two log nodes can be well-separated yet
  // round to the same byte count (a knot landing within ~1/capacity of a
  // grid node), and a zero-width segment would divide 0/0 in the slope
  // computation.
  std::vector<uint64_t> capacities;
  capacities.reserve(x_.size());
  for (const double lx : x_) {
    const auto capacity = static_cast<uint64_t>(std::llround(std::exp(lx)));
    capacities.push_back(
        std::clamp(capacity, min_capacity_bytes_, max_capacity_bytes_));
  }
  capacities.front() = min_capacity_bytes_;
  capacities.back() = max_capacity_bytes_;
  std::sort(capacities.begin(), capacities.end());
  capacities.erase(std::unique(capacities.begin(), capacities.end()),
                   capacities.end());

  const size_t n = capacities.size();
  CHECK_LE(n, 65535u) << "too many MRC nodes for the 16-bit segment index";
  x_.resize(n);
  y_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Anchor each node at the capacity actually solved so interpolation
    // nodes are exact.
    x_[i] = std::log(static_cast<double>(capacities[i]));
    y_[i] = profile.MissRatio(capacities[i]);
  }
  // The exact curve is monotone non-increasing; bisection jitter could
  // break that by an ULP, which would poison the monotone interpolant.
  // Near-flat segments are snapped exactly flat: marginal-utility policies
  // (UCP) compare MissRatio(w) - MissRatio(w+1) and must see exactly zero
  // for saturated/insensitive curves, not solver noise. The snap raises a
  // node by < 1e-9 and can accumulate only where the true curve is already
  // flat to ~1e-9/segment, far inside the accuracy budget.
  for (size_t i = 1; i < n; ++i) {
    y_[i] = std::min(y_[i], y_[i - 1]);
    if (y_[i - 1] - y_[i] < 1e-9) {
      y_[i] = y_[i - 1];
    }
  }

  // Segment index: for each bucket, the first node at or above the
  // bucket's smallest capacity.
  min_octave_ =
      static_cast<uint32_t>(std::bit_width(min_capacity_bytes_) - 1);
  const auto max_octave =
      static_cast<uint32_t>(std::bit_width(max_capacity_bytes_) - 1);
  bucket_first_.resize(static_cast<size_t>(max_octave - min_octave_ + 1)
                       << kBucketBits);
  for (size_t b = 0; b < bucket_first_.size(); ++b) {
    const uint32_t octave =
        min_octave_ + static_cast<uint32_t>(b >> kBucketBits);
    const uint64_t lead = (uint64_t{1} << kBucketBits) | (b & kBucketMask);
    const uint64_t lowest = octave >= kBucketBits
                                ? lead << (octave - kBucketBits)
                                : lead >> (kBucketBits - octave);
    bucket_first_[b] = static_cast<uint16_t>(
        std::lower_bound(capacities.begin(), capacities.end(), lowest) -
        capacities.begin());
  }

  // PCHIP (Fritsch-Carlson) node slopes.
  slope_.assign(n, 0.0);
  if (n < 2) {
    return;
  }
  if (n == 2) {
    const double d = (y_[1] - y_[0]) / (x_[1] - x_[0]);
    slope_[0] = slope_[1] = d;
    return;
  }
  for (size_t i = 1; i + 1 < n; ++i) {
    const double h0 = x_[i] - x_[i - 1];
    const double h1 = x_[i + 1] - x_[i];
    const double d0 = (y_[i] - y_[i - 1]) / h0;
    const double d1 = (y_[i + 1] - y_[i]) / h1;
    if (d0 * d1 <= 0.0) {
      slope_[i] = 0.0;
    } else {
      const double w0 = 2.0 * h1 + h0;
      const double w1 = h1 + 2.0 * h0;
      slope_[i] = (w0 + w1) / (w0 / d0 + w1 / d1);
    }
  }
  {
    const double h0 = x_[1] - x_[0];
    const double h1 = x_[2] - x_[1];
    const double d0 = (y_[1] - y_[0]) / h0;
    const double d1 = (y_[2] - y_[1]) / h1;
    slope_[0] = EndSlope(h0, h1, d0, d1);
  }
  {
    const double h0 = x_[n - 1] - x_[n - 2];
    const double h1 = x_[n - 2] - x_[n - 3];
    const double d0 = (y_[n - 1] - y_[n - 2]) / h0;
    const double d1 = (y_[n - 2] - y_[n - 3]) / h1;
    slope_[n - 1] = EndSlope(h0, h1, d0, d1);
  }
}

size_t CompiledMrc::Bucket(uint64_t capacity_bytes) const {
  const auto octave =
      static_cast<uint32_t>(std::bit_width(capacity_bytes) - 1);
  const uint64_t lead = octave >= kBucketBits
                            ? capacity_bytes >> (octave - kBucketBits)
                            : capacity_bytes << (kBucketBits - octave);
  return (static_cast<size_t>(octave - min_octave_) << kBucketBits) |
         (lead & kBucketMask);
}

double CompiledMrc::Evaluate(uint64_t capacity_bytes) const {
  CHECK(Covers(capacity_bytes));
  const double lx = std::log(static_cast<double>(capacity_bytes));
  // Every node before the bucket's first has a smaller integer capacity,
  // hence (log being monotone) a log at or below lx, so scanning on to the
  // first node above lx finds exactly what upper_bound over x_ would.
  size_t upper = bucket_first_[Bucket(capacity_bytes)];
  while (upper < x_.size() && x_[upper] <= lx) {
    ++upper;
  }
  return Interpolate(upper, lx);
}

double CompiledMrc::Interpolate(size_t upper, double lx) const {
  // Clamp guards the lx == x_.back() edge.
  const size_t i = std::clamp<size_t>(upper, 1, x_.size() - 1) - 1;

  const double h = x_[i + 1] - x_[i];
  const double t = std::clamp((lx - x_[i]) / h, 0.0, 1.0);
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double value = (2.0 * t3 - 3.0 * t2 + 1.0) * y_[i] +
                       (t3 - 2.0 * t2 + t) * h * slope_[i] +
                       (-2.0 * t3 + 3.0 * t2) * y_[i + 1] +
                       (t3 - t2) * h * slope_[i + 1];
  return std::clamp(value, 0.0, 1.0);
}

}  // namespace copart
