#include "serve/latency_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace copart {
namespace {

// Precomputed bucket upper edges, shared by every sketch. edges[i] is the
// upper edge of bucket i: bucket 0 is the underflow bucket below
// edges[0] = kMinLatencySec, and bucket i in [1, kNumEdges) holds
// [edges[i-1], edges[i]). Computed once with pow(); lookups afterwards only
// compare against these values, so any libm variation is frozen into the
// table at startup and identical for every sketch in the process.
//
// The lookup table slices the in-range values by the top bits of their
// IEEE-754 encoding: for a positive double the encoding is monotone in the
// value, and its exponent plus the top 6 mantissa bits name a slice whose
// ends differ by a factor of at most 65/64. One bucket spans 10^(1/32)
// (~1.075), so a slice holds at most one edge; slice_first[s] is the first
// edge index strictly above the slice's lowest value, and one comparison
// against that edge finishes the lookup.
struct EdgeTable {
  static constexpr int kNumEdges = LatencySketch::kNumBuckets - 1;
  static constexpr int kSliceShift = 52 - 6;  // 52 mantissa bits, keep 6.

  static uint64_t SliceKey(double value) {
    return std::bit_cast<uint64_t>(value) >> kSliceShift;
  }

  EdgeTable() {
    for (int i = 0; i < kNumEdges; ++i) {
      edges[i] = LatencySketch::kMinLatencySec *
                 std::pow(10.0, static_cast<double>(i) /
                                    LatencySketch::kBucketsPerDecade);
    }
    first_key = SliceKey(edges[0]);
    const uint64_t last_key = SliceKey(edges[kNumEdges - 1]);
    slice_first.reserve(last_key - first_key + 1);
    int index = 0;
    for (uint64_t key = first_key; key <= last_key; ++key) {
      const double lowest = std::bit_cast<double>(key << kSliceShift);
      while (index < kNumEdges - 1 && edges[index] <= lowest) {
        ++index;
      }
      slice_first.push_back(static_cast<uint16_t>(index));
    }
  }

  double edges[kNumEdges];
  uint64_t first_key = 0;
  std::vector<uint16_t> slice_first;
};

const EdgeTable& Edges() {
  static const EdgeTable table;
  return table;
}

}  // namespace

LatencySketch::LatencySketch() { Clear(); }

void LatencySketch::Clear() {
  buckets_.fill(0);
  count_ = 0;
}

int LatencySketch::BucketIndex(double latency_sec) {
  const EdgeTable& table = Edges();
  const double value = latency_sec > 0.0 ? latency_sec : 0.0;
  if (value < table.edges[0]) {
    return 0;  // Underflow: below kMinLatencySec.
  }
  if (value >= table.edges[kNumBuckets - 2]) {
    return kNumBuckets - 1;  // Overflow.
  }
  // The bucket index is that of the first edge strictly greater than
  // value. The slice's own edge, if any, is the only one from slice_first
  // on that can lie at or below value.
  int index = table.slice_first[EdgeTable::SliceKey(value) - table.first_key];
  index += table.edges[index] <= value ? 1 : 0;
  return index;
}

void LatencySketch::Record(double latency_sec) {
  ++buckets_[static_cast<size_t>(BucketIndex(latency_sec))];
  ++count_;
}

double LatencySketch::BucketUpperEdge(int index) {
  const EdgeTable& table = Edges();
  if (index <= 0) {
    return kMinLatencySec;
  }
  return table.edges[std::min(index, kNumBuckets - 2)];
}

double LatencySketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based: ceil(q * count), at least 1.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)];
    if (cumulative >= rank) {
      return BucketUpperEdge(i);
    }
  }
  return BucketUpperEdge(kNumBuckets - 1);
}

void LatencySketch::Merge(const LatencySketch& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

}  // namespace copart
