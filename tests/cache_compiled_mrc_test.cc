// Property tests for the compiled (table-interpolated) miss-ratio curves
// against the exact Che solver: tight pointwise agreement across randomized
// reuse mixtures, monotonicity (the invariant UCP-style policies rely on),
// and exact endpoints.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/compiled_mrc.h"
#include "cache/miss_ratio_curve.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "workload/workload.h"

namespace copart {

// Reads CompiledMrc's nodes: the reference segment lookup is the binary
// search over the log nodes that the bucket index replaced.
class CompiledMrcTestPeer {
 public:
  static double EvaluateByUpperBound(const CompiledMrc& mrc,
                                     uint64_t capacity_bytes) {
    const double lx = std::log(static_cast<double>(capacity_bytes));
    const auto upper = static_cast<size_t>(
        std::upper_bound(mrc.x_.begin(), mrc.x_.end(), lx) - mrc.x_.begin());
    return mrc.Interpolate(upper, lx);
  }

  // The integer capacity each node was solved at.
  static std::vector<uint64_t> NodeCapacities(const CompiledMrc& mrc) {
    std::vector<uint64_t> capacities;
    for (const double lx : mrc.x_) {
      capacities.push_back(static_cast<uint64_t>(std::llround(std::exp(lx))));
    }
    return capacities;
  }
};

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The accuracy contract of the compiled fast path: relative error <= 1e-4
// wherever the exact value is non-negligible, absolute error <= 1e-5 below
// that (an MRC tail of 1e-5 is ~zero misses for every model consumer).
void ExpectClose(double compiled, double exact, uint64_t capacity,
                 const char* what) {
  const double error = std::abs(compiled - exact);
  EXPECT_LE(error, std::max(1e-4 * exact, 1e-5))
      << what << " at capacity " << capacity << ": compiled=" << compiled
      << " exact=" << exact;
}

// Log-spaced + random capacities spanning the whole operating range of the
// simulated machines (a fraction of a way up to beyond any footprint).
std::vector<uint64_t> ProbeCapacities(Rng& rng) {
  std::vector<uint64_t> capacities;
  for (uint64_t capacity = 1024; capacity <= GiB(1); capacity *= 2) {
    capacities.push_back(capacity);
    capacities.push_back(capacity + capacity / 3);
  }
  for (int i = 0; i < 200; ++i) {
    capacities.push_back(1024 + rng.NextUint64(MiB(64)));
  }
  return capacities;
}

ReuseProfile RandomProfile(Rng& rng) {
  const size_t num_components = rng.NextUint64(4);  // 0-3 components.
  std::vector<ReuseComponent> components;
  double weight_budget = 1.0;
  for (size_t i = 0; i < num_components; ++i) {
    ReuseComponent component;
    component.weight = weight_budget * (0.1 + 0.6 * rng.NextDouble());
    // Working sets log-uniform in [64 KiB, 64 MiB].
    component.working_set_bytes =
        static_cast<uint64_t>(KiB(64) * std::pow(1024.0, rng.NextDouble()));
    weight_budget -= component.weight;
    components.push_back(component);
  }
  const double streaming = weight_budget * rng.NextDouble();
  return ReuseProfile(std::move(components), streaming);
}

TEST(CompiledMrcPropertyTest, MatchesExactSolveOnRandomProfiles) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 40; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const uint64_t capacity : ProbeCapacities(rng)) {
      ExpectClose(profile.MissRatio(capacity, MrcMode::kCompiled),
                  profile.MissRatio(capacity), capacity, "random profile");
    }
  }
}

TEST(CompiledMrcPropertyTest, MatchesExactSolveOnWorkloadSurrogates) {
  Rng rng(0xBEEF);
  std::vector<WorkloadDescriptor> registry = AllTable2Benchmarks();
  registry.push_back(Stream());
  registry.push_back(Memcached());
  registry.push_back(WordCount());
  registry.push_back(Kmeans());
  registry.push_back(PhasedScanCompute());
  for (const WorkloadDescriptor& descriptor : registry) {
    SCOPED_TRACE(descriptor.name);
    for (const uint64_t capacity : ProbeCapacities(rng)) {
      ExpectClose(
          descriptor.reuse_profile.MissRatio(capacity, MrcMode::kCompiled),
          descriptor.reuse_profile.MissRatio(capacity), capacity,
          descriptor.name.c_str());
    }
  }
}

TEST(CompiledMrcPropertyTest, MonotoneNonIncreasingInCapacity) {
  Rng rng(0xD1CE);
  for (int trial = 0; trial < 20; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    double previous = profile.MissRatio(0, MrcMode::kCompiled);
    // Fine-grained ramp: 1% capacity steps catch any interpolation wiggle
    // between nodes, not just node-to-node drops.
    for (uint64_t capacity = 1024; capacity <= MiB(96);
         capacity += std::max<uint64_t>(1024, capacity / 100)) {
      const double miss = profile.MissRatio(capacity, MrcMode::kCompiled);
      EXPECT_LE(miss, previous + 1e-12) << "capacity " << capacity;
      previous = miss;
    }
  }
}

TEST(CompiledMrcPropertyTest, EndpointsExact) {
  Rng rng(0xFACADE);
  for (int trial = 0; trial < 20; ++trial) {
    const ReuseProfile profile = RandomProfile(rng);
    // Capacity 0 and far-beyond-the-grid queries take the exact-solve
    // fallback, so they must agree to the last bit.
    EXPECT_EQ(profile.MissRatio(0, MrcMode::kCompiled),
              profile.MissRatio(0));
    const uint64_t huge = GiB(64);
    EXPECT_EQ(profile.MissRatio(huge, MrcMode::kCompiled),
              profile.MissRatio(huge));
  }
}

TEST(CompiledMrcTest, TableIsSharedAcrossProfileCopies) {
  const ReuseProfile original = Sp().reuse_profile;
  const ReuseProfile copy = original;
  // Same table object, not merely equal contents: compilation is memoized
  // per descriptor.
  EXPECT_EQ(&original.Compiled(), &copy.Compiled());
}

TEST(CompiledMrcTest, EqualContentSharesOneTable) {
  // Independently constructed, not copied: interning by content, not by
  // copy lineage, makes them share.
  const ReuseProfile a({{0.31, MiB(5)}, {0.27, KiB(700)}}, 0.19);
  const ReuseProfile b({{0.31, MiB(5)}, {0.27, KiB(700)}}, 0.19);
  EXPECT_EQ(&a.Compiled(), &b.Compiled());
  const uint64_t builds = ReuseProfile::CompiledBuildCount();
  const ReuseProfile c({{0.31, MiB(5)}, {0.27, KiB(700)}}, 0.19);
  EXPECT_EQ(&a.Compiled(), &c.Compiled());
  EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds);
}

TEST(CompiledMrcTest, AnyContentDifferenceGetsItsOwnTable) {
  const ReuseProfile base({{0.41, MiB(3)}, {0.22, MiB(9)}}, 0.13);
  const ReuseProfile weight_ulp(
      {{std::nextafter(0.41, 1.0), MiB(3)}, {0.22, MiB(9)}}, 0.13);
  const ReuseProfile streaming_ulp({{0.41, MiB(3)}, {0.22, MiB(9)}},
                                   std::nextafter(0.13, 0.0));
  const ReuseProfile working_set({{0.41, MiB(3) + 64}, {0.22, MiB(9)}}, 0.13);
  const ReuseProfile reordered({{0.22, MiB(9)}, {0.41, MiB(3)}}, 0.13);
  std::set<const CompiledMrc*> tables;
  for (const ReuseProfile* profile :
       {&base, &weight_ulp, &streaming_ulp, &working_set, &reordered}) {
    tables.insert(&profile->Compiled());
  }
  EXPECT_EQ(tables.size(), 5u);
}

TEST(CompiledMrcTest, TableIsRebuiltOnlyAfterEveryHolderIsGone) {
  const std::vector<ReuseComponent> components = {{0.37, MiB(6)}};
  uint64_t builds = ReuseProfile::CompiledBuildCount();
  std::optional<ReuseProfile> holder;
  holder.emplace(components, 0.23);
  holder->Compiled();
  EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds + 1);
  {
    // A copy keeps the table alive after the original is gone.
    const ReuseProfile copy = *holder;
    holder.reset();
    const ReuseProfile equal(components, 0.23);
    EXPECT_EQ(&equal.Compiled(), &copy.Compiled());
    EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds + 1);
  }
  // Every holder is gone: the registry kept only a weak reference, so the
  // next equal profile compiles again.
  const ReuseProfile fresh(components, 0.23);
  fresh.Compiled();
  EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds + 2);
}

TEST(CompiledMrcTest, ConcurrentResolversOfOneContentShareOneBuild) {
  // Four contents, each resolved by many tasks on 8 threads; every profile
  // stays alive until the sweep ends, so each content builds exactly once.
  constexpr size_t kContents = 4;
  constexpr size_t kTasks = 64;
  const uint64_t builds = ReuseProfile::CompiledBuildCount();
  std::vector<std::optional<ReuseProfile>> profiles(kTasks);
  std::vector<const CompiledMrc*> tables(kTasks, nullptr);
  ParallelConfig config;
  config.num_threads = 8;
  ParallelFor(config, kTasks, [&](size_t i) {
    const double weight = 0.5 + 0.01 * static_cast<double>(i % kContents);
    profiles[i].emplace(std::vector<ReuseComponent>{{weight, MiB(7)}}, 0.11);
    tables[i] = &profiles[i]->Compiled();
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(tables[i], tables[i % kContents]) << "task " << i;
  }
  EXPECT_EQ(std::set<const CompiledMrc*>(tables.begin(), tables.end()).size(),
            kContents);
  EXPECT_EQ(ReuseProfile::CompiledBuildCount(), builds + kContents);
}

TEST(CompiledMrcTest, HigherDensityTightensTheTable) {
  const ReuseProfile profile({{0.5, MiB(8)}, {0.3, MiB(1)}}, 0.1);
  CompiledMrcOptions coarse;
  coarse.samples_per_decade = 8;
  CompiledMrcOptions fine;
  fine.samples_per_decade = 96;
  const CompiledMrc coarse_table(profile, coarse);
  const CompiledMrc fine_table(profile, fine);
  EXPECT_GT(fine_table.num_samples(), 4 * coarse_table.num_samples());
  // Worst-case interpolation error must shrink with density.
  double coarse_err = 0.0;
  double fine_err = 0.0;
  for (uint64_t capacity = KiB(256); capacity <= MiB(32);
       capacity += KiB(173)) {
    const double exact = profile.MissRatio(capacity);
    coarse_err =
        std::max(coarse_err, std::abs(coarse_table.Evaluate(capacity) - exact));
    fine_err =
        std::max(fine_err, std::abs(fine_table.Evaluate(capacity) - exact));
  }
  EXPECT_LT(fine_err, coarse_err);
  EXPECT_LE(fine_err, 1e-5);
}

TEST(CompiledMrcTest, BucketLookupMatchesBinarySearchBitForBit) {
  // Every node capacity and its neighbours (segment edges), the grid ends,
  // and log-uniform random capacities, across grid densities from sparse
  // (empty buckets) to dense (long scans) and a grid reaching below the
  // 64-byte octave where a capacity has fewer than six bits after its lead.
  std::vector<CompiledMrcOptions> grids(4);
  grids[1].samples_per_decade = 8;
  grids[2].samples_per_decade = 4096;
  grids[3].min_capacity_bytes = 1;
  std::vector<WorkloadDescriptor> profiles = AllTable2Benchmarks();
  profiles.push_back(Stream());
  Rng rng(0x5E6);
  for (size_t g = 0; g < grids.size(); ++g) {
    for (const WorkloadDescriptor& descriptor : profiles) {
      SCOPED_TRACE(descriptor.name + " grid " + std::to_string(g));
      const CompiledMrc table(descriptor.reuse_profile, grids[g]);
      std::vector<uint64_t> capacities = {table.min_capacity_bytes(),
                                          table.max_capacity_bytes()};
      for (const uint64_t node : CompiledMrcTestPeer::NodeCapacities(table)) {
        capacities.insert(capacities.end(), {node - 1, node, node + 1});
      }
      const double lo =
          std::log(static_cast<double>(table.min_capacity_bytes()));
      const double hi =
          std::log(static_cast<double>(table.max_capacity_bytes()));
      for (int i = 0; i < 10000; ++i) {
        capacities.push_back(static_cast<uint64_t>(
            std::exp(lo + (hi - lo) * rng.NextDouble())));
      }
      for (const uint64_t capacity : capacities) {
        if (!table.Covers(capacity)) {
          continue;
        }
        const double got = table.Evaluate(capacity);
        const double want =
            CompiledMrcTestPeer::EvaluateByUpperBound(table, capacity);
        ASSERT_TRUE(SameBits(got, want))
            << "capacity " << capacity << ": bucket=" << got
            << " binary search=" << want;
      }
    }
  }
}

TEST(CompiledMrcTest, CoversReportsGridRange)  {
  const ReuseProfile profile({{0.6, MiB(4)}}, 0.2);
  const CompiledMrc& table = profile.Compiled();
  EXPECT_FALSE(table.Covers(0));
  EXPECT_TRUE(table.Covers(table.min_capacity_bytes()));
  EXPECT_TRUE(table.Covers(MiB(22)));
  EXPECT_TRUE(table.Covers(table.max_capacity_bytes()));
  EXPECT_FALSE(table.Covers(table.max_capacity_bytes() + 1));
}

}  // namespace
}  // namespace copart
