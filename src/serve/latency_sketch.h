// Allocation-free streaming quantile sketch for request latencies.
//
// A fixed-bucket log-latency histogram: bucket edges grow geometrically
// from kMinLatencySec to kMaxLatencySec (kBucketsPerDecade per decade), so
// a quantile is reported as the upper edge of the bucket containing it —
// a deterministic overestimate whose relative error is bounded by the
// bucket ratio (10^(1/kBucketsPerDecade) - 1, about 7.5%). Everything is
// plain integer counters: Record() is one table lookup keyed by the
// value's exponent and top mantissa bits, one edge comparison and an
// increment. With no allocation and no floating-point accumulation order,
// the sketch merges and replays bit-identically for any thread count
// (DESIGN.md §9).
#ifndef COPART_SERVE_LATENCY_SKETCH_H_
#define COPART_SERVE_LATENCY_SKETCH_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace copart {

class LatencySketch {
 public:
  // 32 buckets per decade over [1 us, 100 s) plus an underflow and an
  // overflow bucket. The range comfortably covers sub-SLO latencies and
  // pathological overload backlogs alike.
  static constexpr int kBucketsPerDecade = 32;
  static constexpr int kDecades = 8;  // 1e-6 .. 1e2 seconds.
  static constexpr int kNumBuckets = kBucketsPerDecade * kDecades + 2;
  static constexpr double kMinLatencySec = 1e-6;

  LatencySketch();

  // Records one latency observation (seconds). Negative values count as 0.
  void Record(double latency_sec);

  // Latency (seconds) at quantile q in [0, 1]: the upper edge of the
  // bucket where the cumulative count first reaches q * count. 0 when the
  // sketch is empty. The underflow bucket reports kMinLatencySec and the
  // overflow bucket the largest edge (the sketch saturates, it never
  // extrapolates).
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  uint64_t overflow() const { return buckets_[kNumBuckets - 1]; }

  // Adds `other`'s counts into this sketch (same fixed geometry, so a
  // plain element-wise sum; used for the serial index-order reductions of
  // the sweep engine).
  void Merge(const LatencySketch& other);

  void Clear();

  // Upper edge (seconds) of bucket `index`; exposed for tests and the
  // metrics bridge.
  static double BucketUpperEdge(int index);

 private:
  // Index of the bucket containing `latency_sec`: range clamp, then an
  // O(1) slice lookup plus one comparison against the precomputed edges —
  // exactly the first edge above the value, never floating log, whose libm
  // rounding may differ across toolchains.
  static int BucketIndex(double latency_sec);

  std::array<uint64_t, kNumBuckets> buckets_;
  uint64_t count_ = 0;
};

}  // namespace copart

#endif  // COPART_SERVE_LATENCY_SKETCH_H_
