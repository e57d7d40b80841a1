// Compiled miss-ratio curves: the exact analytic MRC sampled once into a
// monotone interpolation table.
//
// Every experiment in this repository reduces to millions of epoch solves,
// and each epoch queries ReuseProfile::MissRatio ~7x per app (the shared-
// capacity fixed point plus the two CPI passes). The exact query runs a
// 48-iteration bisection with one exp() per mixture component per iteration
// — precise, but ~100 exp() calls for a number the model only needs to
// ~1e-4. Real UCP-style controllers (and CBP/LFOC) face the same economics
// and precompute their MRCs as lookup tables; CompiledMrc is that idea for
// the simulator.
//
// The table samples the exact curve on a log-spaced capacity grid (the MRC
// is smooth in log-capacity), augmented with knots at each component's
// working-set size and at the total footprint where the exact curve has its
// kinks. Queries interpolate with a PCHIP-style (Fritsch-Carlson) monotone
// cubic, which preserves the curve's defining invariant — monotone
// non-increasing in capacity — segment by segment, so policies that rely on
// "more ways never hurt" (UCP's marginal utilities, the heatmap
// monotonicity tests) keep working. Queries outside the sampled range fall
// back to the exact solve (capacity 0 and multi-GiB what-if probes are not
// hot).
//
// The segment lookup is O(1): a bucket index keyed by the query's integer
// capacity (its floor log2 and the next six bits, 64 buckets per octave)
// names the first node that can lie above it, and a short forward scan over
// the log nodes finishes the search. It lands on exactly the segment a
// binary search over the nodes would, so results are bit-identical.
//
// Accuracy at the default density is ~1e-5 relative, validated against the
// exact solver over randomized mixtures in tests/cache_compiled_mrc_test.cc
// (required bound: 1e-4 everywhere).
#ifndef COPART_CACHE_COMPILED_MRC_H_
#define COPART_CACHE_COMPILED_MRC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace copart {

class ReuseProfile;

struct CompiledMrcOptions {
  // Sample density of the log-spaced grid. The default is chosen so the
  // interpolation error stays comfortably under 1e-4 relative for the kind
  // of mixtures the workload surrogates use (see the property test); the
  // binding constraint is the knee where a mixture approaches its total
  // footprint and the curve bends fastest. Query cost is independent of the
  // density (bucket index), build cost is linear and paid once. The table
  // may hold at most 65535 nodes.
  uint32_t samples_per_decade = 256;
  // Grid span. Queries below/above fall back to the exact solve; the upper
  // bound is automatically extended to 8x the profile's total footprint so
  // the tail of the curve is always covered.
  uint64_t min_capacity_bytes = 64;
  uint64_t max_capacity_bytes = 1ull << 30;  // 1 GiB
};

class CompiledMrc {
 public:
  CompiledMrc(const ReuseProfile& profile,
              const CompiledMrcOptions& options = {});

  // True iff `capacity_bytes` lies inside the sampled grid; callers must
  // use the exact solve otherwise (ReuseProfile::MissRatio(capacity, mode)
  // does this automatically).
  bool Covers(uint64_t capacity_bytes) const {
    return capacity_bytes >= min_capacity_bytes_ &&
           capacity_bytes <= max_capacity_bytes_;
  }

  // Interpolated miss ratio; requires Covers(capacity_bytes).
  double Evaluate(uint64_t capacity_bytes) const;

  size_t num_samples() const { return x_.size(); }
  uint64_t min_capacity_bytes() const { return min_capacity_bytes_; }
  uint64_t max_capacity_bytes() const { return max_capacity_bytes_; }

 private:
  // Buckets per octave of capacity: 2^kBucketBits.
  static constexpr uint32_t kBucketBits = 6;
  static constexpr uint64_t kBucketMask = (uint64_t{1} << kBucketBits) - 1;

  // Index into bucket_first_ of a covered capacity.
  size_t Bucket(uint64_t capacity_bytes) const;

  // The monotone cubic on the segment ending at node `upper` (the first
  // node above lx, clamped into the table), evaluated at lx = ln(capacity).
  double Interpolate(size_t upper, double lx) const;

  // Reads the nodes to check the bucket lookup against a binary search.
  friend class CompiledMrcTestPeer;

  uint64_t min_capacity_bytes_ = 0;
  uint64_t max_capacity_bytes_ = 0;
  // Interpolation nodes: x_ = ln(capacity_bytes), y_ = exact miss ratio
  // (forced monotone non-increasing), slope_ = PCHIP node derivative.
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> slope_;
  // Segment index over the octaves from min_octave_ to the max capacity's:
  // bucket_first_[b] is the first node whose integer capacity is at least
  // the smallest capacity in bucket b, so every earlier node lies at or
  // below any query in the bucket.
  uint32_t min_octave_ = 0;
  std::vector<uint16_t> bucket_first_;
};

}  // namespace copart

#endif  // COPART_CACHE_COMPILED_MRC_H_
