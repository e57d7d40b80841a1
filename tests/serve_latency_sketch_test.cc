// LatencySketch (src/serve/latency_sketch.h): the fixed-bucket log-latency
// histogram's quantiles must track exact sorted percentiles within one
// bucket ratio (10^(1/32), ~7.5% relative), and the edge cases — empty,
// underflow, overflow, merge — must saturate rather than misreport.
#include "serve/latency_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

// Upper/lower edge ratio of adjacent buckets: the sketch's worst-case
// relative error for in-range values.
const double kBucketRatio =
    std::pow(10.0, 1.0 / LatencySketch::kBucketsPerDecade);

TEST(LatencySketchTest, BucketEdgesAreMonotone) {
  double last = 0.0;
  for (int i = 0; i < LatencySketch::kNumBuckets; ++i) {
    const double edge = LatencySketch::BucketUpperEdge(i);
    ASSERT_GE(edge, last) << "bucket " << i;
    if (i >= 1 && i < LatencySketch::kNumBuckets - 1) {
      ASSERT_GT(edge, last) << "bucket " << i;
    }
    last = edge;
  }
  EXPECT_DOUBLE_EQ(LatencySketch::BucketUpperEdge(0),
                   LatencySketch::kMinLatencySec);
  // 8 decades above 1 us: the table tops out at 100 s.
  EXPECT_NEAR(LatencySketch::BucketUpperEdge(LatencySketch::kNumBuckets - 1),
              100.0, 1e-6);
}

// Reference bucket index: the clamp of the sketch's contract plus a binary
// search over the public edges (the first edge strictly above the value).
int ReferenceBucketIndex(double latency_sec) {
  static const std::vector<double> edges = [] {
    std::vector<double> table;
    for (int i = 0; i < LatencySketch::kNumBuckets - 1; ++i) {
      table.push_back(LatencySketch::BucketUpperEdge(i));
    }
    return table;
  }();
  const double value = latency_sec > 0.0 ? latency_sec : 0.0;
  if (value < edges.front()) {
    return 0;
  }
  if (value >= edges.back()) {
    return LatencySketch::kNumBuckets - 1;
  }
  return static_cast<int>(
      std::upper_bound(edges.begin(), edges.end(), value) - edges.begin());
}

// Records `value` alone and checks that it landed in the reference bucket:
// Quantile(1.0) names the bucket's upper edge, and overflow() tells the
// overflow bucket apart from the last in-range one (they share an edge).
::testing::AssertionResult SameBucketAsReference(LatencySketch& sketch,
                                                 double value) {
  sketch.Clear();
  sketch.Record(value);
  const int expected = ReferenceBucketIndex(value);
  const bool expect_overflow = expected == LatencySketch::kNumBuckets - 1;
  if (sketch.Quantile(1.0) != LatencySketch::BucketUpperEdge(expected) ||
      (sketch.overflow() == 1u) != expect_overflow) {
    return ::testing::AssertionFailure()
           << "value " << value << ": expected bucket " << expected
           << ", got Quantile(1.0) " << sketch.Quantile(1.0)
           << " overflow " << sketch.overflow();
  }
  return ::testing::AssertionSuccess();
}

TEST(LatencySketchTest, BucketIndexMatchesBinarySearchAtEveryEdge) {
  LatencySketch sketch;
  for (int i = 0; i < LatencySketch::kNumBuckets - 1; ++i) {
    const double edge = LatencySketch::BucketUpperEdge(i);
    ASSERT_TRUE(SameBucketAsReference(sketch, edge));
    ASSERT_TRUE(SameBucketAsReference(sketch, std::nextafter(edge, 0.0)));
    ASSERT_TRUE(SameBucketAsReference(
        sketch,
        std::nextafter(edge, std::numeric_limits<double>::infinity())));
  }
}

TEST(LatencySketchTest, BucketIndexMatchesBinarySearchOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  LatencySketch sketch;
  for (double value :
       {0.0, -0.0, -1.0, -1e-300, -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN(), limits::denorm_min(), 2.2e-310,
        limits::min(), 1e-7, 1e300, limits::max(), limits::infinity()}) {
    EXPECT_TRUE(SameBucketAsReference(sketch, value));
  }
}

TEST(LatencySketchTest, BucketIndexMatchesBinarySearchOnLogUniformValues) {
  // Log-uniform over [1e-8, 1e3]: every octave of the table, plus a margin
  // of underflow and overflow on either side.
  Rng rng(2024);
  LatencySketch sketch;
  const double lo = std::log(1e-8);
  const double hi = std::log(1e3);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(SameBucketAsReference(
        sketch, std::exp(lo + (hi - lo) * rng.NextDouble())));
  }
}

TEST(LatencySketchTest, QuantilesMatchExactPercentilesWithinBucketRatio) {
  // 20k exponential sojourn times with a 2 ms mean — the serve engine's
  // native latency scale. The sketch quantile is the upper edge of the
  // bucket holding the rank-ceil(q*n) sample, so it must lie in
  // (exact, exact * ratio].
  Rng rng(42);
  LatencySketch sketch;
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double value = rng.NextExponential(0.002);
    samples.push_back(value);
    sketch.Record(value);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(samples.size()))));
    const double exact = samples[rank - 1];
    const double approx = sketch.Quantile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * kBucketRatio * (1.0 + 1e-12)) << "q=" << q;
  }
}

TEST(LatencySketchTest, MergeEqualsRecordingEverything) {
  Rng rng(7);
  LatencySketch combined, a, b;
  for (int i = 0; i < 5000; ++i) {
    const double value = rng.NextExponential(0.01);
    combined.Record(value);
    (i % 2 == 0 ? a : b).Record(value);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(a.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketchTest, EmptySketchReportsZero) {
  LatencySketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Quantile(1.0), 0.0);
}

TEST(LatencySketchTest, UnderflowSaturatesAtMinLatency) {
  LatencySketch sketch;
  sketch.Record(1e-9);
  sketch.Record(0.0);
  sketch.Record(-1.0);  // Negative latencies count as 0 (underflow).
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), LatencySketch::kMinLatencySec);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), LatencySketch::kMinLatencySec);
}

TEST(LatencySketchTest, OverflowSaturatesAtLargestEdge) {
  LatencySketch sketch;
  sketch.Record(1e6);  // Way beyond the 100 s table.
  EXPECT_EQ(sketch.overflow(), 1u);
  EXPECT_DOUBLE_EQ(
      sketch.Quantile(1.0),
      LatencySketch::BucketUpperEdge(LatencySketch::kNumBuckets - 1));
}

TEST(LatencySketchTest, ClearResetsEverything) {
  LatencySketch sketch;
  sketch.Record(0.5);
  sketch.Clear();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.95), 0.0);
}

}  // namespace
}  // namespace copart
