// LcServer (src/serve/serve_engine.h): the conservation invariant
// (arrivals == completions + drops + queue depth) after every epoch —
// including overload, zero-capability stalls, and capability steps — plus
// seed determinism of the whole event loop.
#include "serve/serve_engine.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

// Request conservation, plus the cumulative sketch holding exactly one
// sample per completion at every epoch boundary.
void ExpectConservation(const LcServer& server) {
  EXPECT_EQ(server.total_arrivals(), server.total_completions() +
                                         server.total_drops() +
                                         server.queue_depth());
  EXPECT_EQ(server.cumulative_latency().count(), server.total_completions());
}

TEST(LcServerTest, ConservationHoldsInSteadyState) {
  LcServerConfig config;
  config.arrival.base_rate_rps = 10000.0;
  config.instructions_per_request = 60000.0;
  LcServer server(config, Rng(42));
  // mu = 1.2e9 / 60000 = 20 krps: stable at rho = 0.5.
  for (int epoch = 0; epoch < 100; ++epoch) {
    const EpochServeStats stats = server.AdvanceEpoch(0.1, 1.2e9);
    ExpectConservation(server);
    EXPECT_DOUBLE_EQ(stats.offered_rps,
                     static_cast<double>(stats.arrivals) / 0.1);
  }
  EXPECT_GT(server.total_completions(), 90000u);
  EXPECT_EQ(server.total_drops(), 0u);
  EXPECT_GT(server.cumulative_latency().count(), 0u);
}

TEST(LcServerTest, ConservationHoldsUnderOverloadWithDrops) {
  // A 64-slot queue at 4x overload: the tail must drop, and every dropped
  // request must still be accounted for.
  LcServerConfig config;
  config.arrival.base_rate_rps = 80000.0;
  config.instructions_per_request = 60000.0;
  config.queue_capacity = 64;
  LcServer server(config, Rng(7));
  for (int epoch = 0; epoch < 50; ++epoch) {
    server.AdvanceEpoch(0.1, 1.2e9);  // mu = 20 krps << offered 80 krps.
    ExpectConservation(server);
  }
  EXPECT_GT(server.total_drops(), 0u);
  EXPECT_LE(server.queue_depth(), 64u);
  // The overloaded queue's sojourn times pile up near the high buckets.
  EXPECT_GT(server.cumulative_latency().Quantile(0.95), 1e-4);
}

TEST(LcServerTest, NonPowerOfTwoQueueWrapsWithConservation) {
  // Five slots at rho ~0.75: the ring's head wraps tens of thousands of
  // times and the tail drops whenever a burst outruns it.
  LcServerConfig config;
  config.arrival.base_rate_rps = 15000.0;
  config.queue_capacity = 5;
  LcServer server(config, Rng(11));
  for (int epoch = 0; epoch < 100; ++epoch) {
    server.AdvanceEpoch(0.1, 1.2e9);  // mu = 20 krps.
    ExpectConservation(server);
    ASSERT_LE(server.queue_depth(), 5u);
  }
  EXPECT_GT(server.total_completions(), 5u * 10000u);
  EXPECT_GT(server.total_drops(), 0u);
}

TEST(LcServerTest, BurstRunCumulativeTailIsPinned) {
  // A 1x/4x burst against mu = 5 krps: the 8 krps phase overloads the
  // 128-slot queue and drops, then a 101 s stall pushes the queued
  // requests' sojourn past the sketch's 100 s top edge before service
  // resumes. Seed-pinned bucket indices and counts: any change to the
  // event loop, the arrival stream or the bucket lookup shows here.
  LcServerConfig config;
  config.arrival.kind = ArrivalKind::kBurst;
  config.arrival.base_rate_rps = 2000.0;
  config.arrival.burst_phases = {{1.0, 1.0}, {1.0, 4.0}};
  config.queue_capacity = 128;
  LcServer server(config, Rng(2019));
  for (int epoch = 0; epoch < 2410; ++epoch) {
    const bool stalled = epoch >= 200 && epoch < 1210;
    server.AdvanceEpoch(0.1, stalled ? 0.0 : 0.3e9);
    ExpectConservation(server);
  }
  const LatencySketch& sketch = server.cumulative_latency();
  auto bucket_of = [](double quantile) {
    for (int i = 0; i < LatencySketch::kNumBuckets; ++i) {
      if (LatencySketch::BucketUpperEdge(i) == quantile) {
        return i;
      }
    }
    return -1;
  };
  EXPECT_EQ(server.total_arrivals(), 1203242u);
  EXPECT_EQ(server.total_completions(), 499842u);
  EXPECT_EQ(server.total_drops(), 703399u);
  EXPECT_EQ(server.queue_depth(), 1u);
  EXPECT_EQ(bucket_of(sketch.Quantile(0.50)), 141);
  EXPECT_EQ(bucket_of(sketch.Quantile(0.95)), 143);
  EXPECT_EQ(bucket_of(sketch.Quantile(0.99)), 144);
  EXPECT_EQ(sketch.overflow(), 128u);
}

TEST(LcServerTest, ZeroCapabilityStallsServiceButQueuesArrivals) {
  LcServerConfig config;
  config.arrival.base_rate_rps = 1000.0;
  LcServer server(config, Rng(42));
  for (int epoch = 0; epoch < 10; ++epoch) {
    const EpochServeStats stats = server.AdvanceEpoch(0.1, 0.0);
    EXPECT_EQ(stats.completions, 0u);
    ExpectConservation(server);
  }
  EXPECT_EQ(server.total_completions(), 0u);
  EXPECT_GT(server.queue_depth(), 0u);
  // Service resumes: the backlog drains and conservation still holds.
  const uint64_t backlog = server.queue_depth();
  for (int epoch = 0; epoch < 20; ++epoch) {
    server.AdvanceEpoch(0.1, 1.2e9);
    ExpectConservation(server);
  }
  EXPECT_GT(server.total_completions(), backlog);
  EXPECT_LT(server.queue_depth(), backlog);
}

TEST(LcServerTest, SameSeedIsBitIdentical) {
  LcServerConfig config;
  config.arrival.kind = ArrivalKind::kBurst;
  config.arrival.base_rate_rps = 20000.0;
  config.arrival.burst_phases = {{1.0, 1.0}, {1.0, 3.0}};
  LcServer a(config, Rng(123));
  LcServer b(config, Rng(123));
  for (int epoch = 0; epoch < 60; ++epoch) {
    // A capability schedule with a step keeps the event interleaving
    // non-trivial.
    const double capability = epoch < 30 ? 1.2e9 : 3.6e9;
    const EpochServeStats sa = a.AdvanceEpoch(0.1, capability);
    const EpochServeStats sb = b.AdvanceEpoch(0.1, capability);
    ASSERT_EQ(sa.arrivals, sb.arrivals) << "epoch " << epoch;
    ASSERT_EQ(sa.completions, sb.completions) << "epoch " << epoch;
    ASSERT_EQ(sa.drops, sb.drops) << "epoch " << epoch;
    ASSERT_EQ(sa.p95_ms, sb.p95_ms) << "epoch " << epoch;
  }
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.cumulative_latency().Quantile(0.99),
            b.cumulative_latency().Quantile(0.99));
}

TEST(LcServerTest, CapabilityStepMovesTheTail) {
  // Same arrival stream, twice: the run that gets a mid-run capability
  // boost must complete more and end with lower tail latency — the lever
  // the SLO governor pulls when it widens the LC slice.
  auto run = [](bool boost) {
    LcServerConfig config;
    config.arrival.base_rate_rps = 18000.0;
    LcServer server(config, Rng(5));
    for (int epoch = 0; epoch < 100; ++epoch) {
      const double capability =
          (boost && epoch >= 50) ? 3.6e9 : 1.2e9;  // mu: 20 -> 60 krps.
      server.AdvanceEpoch(0.1, capability);
    }
    return server;
  };
  const LcServer steady = run(false);
  const LcServer boosted = run(true);
  EXPECT_EQ(steady.total_arrivals(), boosted.total_arrivals());
  EXPECT_GE(boosted.total_completions(), steady.total_completions());
  EXPECT_LT(boosted.cumulative_latency().Quantile(0.95),
            steady.cumulative_latency().Quantile(0.95));
}

}  // namespace
}  // namespace copart
