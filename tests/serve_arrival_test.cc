// Arrival generators (src/serve/arrival.h): seed determinism down to the
// exact draw sequence, shape correctness of the rate functions, and the
// statistical sanity of the thinned processes.
#include "serve/arrival.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace copart {
namespace {

// Known-answer pins: the first arrivals of a seeded generator are part of
// the determinism contract (goldens and the serve harness depend on the
// stream layout). If an intentional Rng or thinning change shifts these,
// regenerate the serve goldens too.
TEST(ArrivalGeneratorTest, PoissonKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.base_rate_rps = 1000.0;
  ArrivalGenerator generator(config, Rng(123));
  const double expected[] = {
      0.0016261042669824923, 0.0023865878554015798, 0.0034719439831913616,
      0.0044449047345042729, 0.0047179842589593433, 0.0051453646101030709,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, BurstKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 500.0;
  config.burst_phases = {{1.0, 1.0}, {1.0, 4.0}};
  ArrivalGenerator generator(config, Rng(7));
  const double expected[] = {
      0.001670392215931772,  0.0021239257586970371, 0.0044671987317274429,
      0.0056952436669343914, 0.0093810325233945543, 0.010140917074460342,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, FlashCrowdKnownAnswerSequence) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 1000.0;
  config.flash_start_sec = 0.002;
  config.flash_duration_sec = 0.004;
  config.flash_multiplier = 4.0;
  ArrivalGenerator generator(config, Rng(17));
  const double expected[] = {
      0.0020190084751718481, 0.0022934571225699707, 0.0028943165008006142,
      0.0029109712008757644, 0.0029337590346401759, 0.0031334837687397011,
  };
  for (double value : expected) {
    EXPECT_EQ(generator.Next(), value);
  }
}

TEST(ArrivalGeneratorTest, SameSeedReplaysIdentically) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kDiurnal;
  config.base_rate_rps = 2000.0;
  config.diurnal_period_sec = 10.0;
  config.diurnal_amplitude = 0.8;
  ArrivalGenerator a(config, Rng(99));
  ArrivalGenerator b(config, Rng(99));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << "arrival " << i;
  }
}

TEST(ArrivalGeneratorTest, ForkedStreamsAreIndependent) {
  ArrivalConfig config;
  config.base_rate_rps = 1000.0;
  const Rng root(42);
  ArrivalGenerator a(config, root.Fork(0));
  ArrivalGenerator b(config, root.Fork(1));
  int identical = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++identical;
    }
  }
  EXPECT_EQ(identical, 0);
}

TEST(ArrivalGeneratorTest, ArrivalsStrictlyIncreaseForEveryShape) {
  std::vector<ArrivalConfig> configs(4);
  configs[0].kind = ArrivalKind::kPoisson;
  configs[1].kind = ArrivalKind::kDiurnal;
  configs[1].diurnal_period_sec = 5.0;
  configs[1].diurnal_amplitude = 1.0;
  configs[2].kind = ArrivalKind::kBurst;
  configs[2].burst_phases = {{0.5, 2.0}, {0.5, 0.25}};
  configs[3].kind = ArrivalKind::kFlashCrowd;
  configs[3].flash_start_sec = 0.1;
  configs[3].flash_duration_sec = 0.3;
  configs[3].flash_multiplier = 6.0;
  for (ArrivalConfig& config : configs) {
    config.base_rate_rps = 5000.0;
    ArrivalGenerator generator(config, Rng(7));
    double last = 0.0;
    for (int i = 0; i < 5000; ++i) {
      const double t = generator.Next();
      ASSERT_GT(t, last) << "arrival " << i;
      last = t;
    }
  }
}

TEST(ArrivalGeneratorTest, EmpiricalRateMatchesConfiguredRate) {
  // 100 simulated seconds at 1 krps: the count is Poisson(100000), whose
  // +-5 sigma band is well inside +-2%.
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.base_rate_rps = 1000.0;
  ArrivalGenerator generator(config, Rng(42));
  uint64_t count = 0;
  while (generator.Next() < 100.0) {
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count), 100000.0, 2000.0);
}

TEST(ArrivalGeneratorTest, ThinningRealizesBurstPhaseRates) {
  // Phases at 1x and 4x the base rate: the per-phase counts must reflect
  // the 1:4 ratio, not the homogeneous envelope the thinning draws from.
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 1000.0;
  config.burst_phases = {{1.0, 1.0}, {1.0, 4.0}};
  ArrivalGenerator generator(config, Rng(3));
  uint64_t low = 0, high = 0;
  for (;;) {
    const double t = generator.Next();
    if (t >= 100.0) {
      break;
    }
    const double offset = t - 2.0 * std::floor(t / 2.0);
    (offset < 1.0 ? low : high) += 1;
  }
  // 50 cycles: ~50k low-phase and ~200k high-phase arrivals.
  EXPECT_NEAR(static_cast<double>(low), 50000.0, 2500.0);
  EXPECT_NEAR(static_cast<double>(high), 200000.0, 5000.0);
}

TEST(ArrivalGeneratorTest, ThinningRealizesFlashCrowdStep) {
  // 100 simulated seconds, flash window [40, 60) at 4x: ~80k arrivals in
  // the window (20 s * 4 krps) and ~80k outside (80 s * 1 krps).
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 1000.0;
  config.flash_start_sec = 40.0;
  config.flash_duration_sec = 20.0;
  config.flash_multiplier = 4.0;
  ArrivalGenerator generator(config, Rng(5));
  uint64_t inside = 0, outside = 0;
  for (;;) {
    const double t = generator.Next();
    if (t >= 100.0) {
      break;
    }
    (t >= 40.0 && t < 60.0 ? inside : outside) += 1;
  }
  EXPECT_EQ(inside, 80204u);    // Seed-pinned; ~Poisson(80000).
  EXPECT_EQ(outside, 79941u);
  EXPECT_NEAR(static_cast<double>(inside), 80000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(outside), 80000.0, 2000.0);
}

// Reference Lewis-Shedler thinning straight from the header's contract:
// one exponential gap at the envelope rate and one uniform per candidate,
// accepted against ArrivalRateAt. Next() must return the same times, bit
// for bit, for `count` arrivals. Returns the last arrival time.
double ExpectMatchesReferenceThinning(const ArrivalConfig& config,
                                      uint64_t seed, int count) {
  ArrivalGenerator generator(config, Rng(seed));
  Rng rng(seed);
  const double peak = generator.PeakRate();
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    for (;;) {
      t += rng.NextExponential(1.0 / peak);
      const double accept = rng.NextDouble();
      if (accept * peak < ArrivalRateAt(config, t)) {
        break;
      }
    }
    const double next = generator.Next();
    if (next != t) {
      ADD_FAILURE() << "arrival " << i << ": Next() " << next
                    << " != reference " << t;
      break;
    }
  }
  return t;
}

TEST(ArrivalGeneratorTest, NextEqualsReferenceThinningForEveryShape) {
  constexpr int kArrivals = 1000000;
  ArrivalConfig poisson;
  poisson.kind = ArrivalKind::kPoisson;
  poisson.base_rate_rps = 1000.0;
  ExpectMatchesReferenceThinning(poisson, 1, kArrivals);

  ArrivalConfig diurnal;
  diurnal.kind = ArrivalKind::kDiurnal;
  diurnal.base_rate_rps = 1000.0;
  diurnal.diurnal_period_sec = 60.0;
  diurnal.diurnal_amplitude = 0.9;
  ExpectMatchesReferenceThinning(diurnal, 2, kArrivals);

  // The serve scenario's cycle: its 30 s length and every multiple are
  // exact, so the cycle tracker's subtraction path does the work.
  ArrivalConfig burst;
  burst.kind = ArrivalKind::kBurst;
  burst.base_rate_rps = 1000.0;
  burst.burst_phases = {{5.0, 1.0}, {15.0, 2.4}, {10.0, 1.0}};
  ExpectMatchesReferenceThinning(burst, 3, kArrivals);

  ArrivalConfig flash;
  flash.kind = ArrivalKind::kFlashCrowd;
  flash.base_rate_rps = 1000.0;
  flash.flash_start_sec = 200.0;
  flash.flash_duration_sec = 300.0;
  flash.flash_multiplier = 5.0;
  ExpectMatchesReferenceThinning(flash, 4, kArrivals);
}

TEST(ArrivalGeneratorTest, BurstMatchesReferenceOnInexactAndLongCycles) {
  constexpr int kArrivals = 1000000;
  // 0.1 + 0.2 + 0.3 sums to 0.6000000000000001: most multiples of the
  // cycle are not exact products, so the fmod fallback runs.
  ArrivalConfig inexact;
  inexact.kind = ArrivalKind::kBurst;
  inexact.base_rate_rps = 1000.0;
  inexact.burst_phases = {{0.1, 1.0}, {0.2, 3.0}, {0.3, 0.5}};
  ExpectMatchesReferenceThinning(inexact, 5, kArrivals);

  // Below one arrival per second the runs pass t = 1e6 s, where a cycle
  // offset is a small difference of large times; one cycle is inexact,
  // the other exact.
  ArrivalConfig slow_inexact = inexact;
  slow_inexact.base_rate_rps = 0.5;
  ArrivalConfig slow_exact;
  slow_exact.kind = ArrivalKind::kBurst;
  slow_exact.base_rate_rps = 0.5;
  slow_exact.burst_phases = {{2.0, 1.0}, {3.0, 2.0}};
  EXPECT_GT(ExpectMatchesReferenceThinning(slow_inexact, 6, kArrivals), 1e6);
  EXPECT_GT(ExpectMatchesReferenceThinning(slow_exact, 7, kArrivals), 1e6);
}

TEST(ArrivalGeneratorDeathTest, AllZeroBurstCycleIsRejected) {
  // Every candidate would be thinned away: Next() could never return.
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 100.0;
  config.burst_phases = {{1.0, 0.0}, {2.0, 0.0}};
  EXPECT_DEATH(ArrivalGenerator(config, Rng(1)), "rate_multiplier");
}

TEST(ArrivalRateAtTest, FlashCrowdStepsExactlyAtWindowBoundaries) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kFlashCrowd;
  config.base_rate_rps = 200.0;
  config.flash_start_sec = 5.0;
  config.flash_duration_sec = 2.0;
  config.flash_multiplier = 3.0;
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 200.0);
  EXPECT_EQ(ArrivalRateAt(config, 4.999), 200.0);
  EXPECT_EQ(ArrivalRateAt(config, 5.0), 600.0);  // Window start inclusive.
  EXPECT_EQ(ArrivalRateAt(config, 6.999), 600.0);
  EXPECT_EQ(ArrivalRateAt(config, 7.0), 200.0);  // Window end exclusive.
  EXPECT_EQ(ArrivalRateAt(config, 100.0), 200.0);  // One-shot: no cycling.
  ArrivalGenerator generator(config, Rng(1));
  EXPECT_DOUBLE_EQ(generator.PeakRate(), 600.0);
}

TEST(ArrivalRateAtTest, BurstPhasesCycleWithExactBoundaries) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 100.0;
  config.burst_phases = {{2.0, 1.0}, {3.0, 5.0}};
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 100.0);
  EXPECT_EQ(ArrivalRateAt(config, 1.999), 100.0);
  EXPECT_EQ(ArrivalRateAt(config, 2.0), 500.0);   // Boundary starts phase 2.
  EXPECT_EQ(ArrivalRateAt(config, 4.999), 500.0);
  EXPECT_EQ(ArrivalRateAt(config, 5.0), 100.0);   // Cycle wraps.
  EXPECT_EQ(ArrivalRateAt(config, 7.5), 500.0);
  EXPECT_EQ(ArrivalRateAt(config, -1.0), 500.0);  // Negative t wraps too.
}

TEST(ArrivalRateAtTest, BurstWithoutPhasesFallsBackToBaseRate) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBurst;
  config.base_rate_rps = 250.0;
  EXPECT_EQ(ArrivalRateAt(config, 0.0), 250.0);
  EXPECT_EQ(ArrivalRateAt(config, 123.4), 250.0);
}

TEST(ArrivalRateAtTest, DiurnalClampsAtZeroAndPeaksAtAmplitude) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kDiurnal;
  config.base_rate_rps = 1000.0;
  config.diurnal_period_sec = 4.0;
  config.diurnal_amplitude = 1.0;
  EXPECT_DOUBLE_EQ(ArrivalRateAt(config, 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(config, 1.0), 2000.0);  // Peak at T/4.
  EXPECT_NEAR(ArrivalRateAt(config, 3.0), 0.0, 1e-9);    // Trough at 3T/4.
  for (double t = 0.0; t < 8.0; t += 0.01) {
    ASSERT_GE(ArrivalRateAt(config, t), 0.0) << "t=" << t;
  }
  ArrivalGenerator generator(config, Rng(11));
  EXPECT_DOUBLE_EQ(generator.PeakRate(), 2000.0);
  EXPECT_DOUBLE_EQ(generator.RateAt(1.0), 2000.0);
}

}  // namespace
}  // namespace copart
