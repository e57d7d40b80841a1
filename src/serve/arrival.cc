#include "serve/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace copart {
namespace {

// kBurst rate at `offset` seconds into the phase cycle.
double BurstPhaseRate(const ArrivalConfig& config, double offset) {
  for (const BurstPhase& phase : config.burst_phases) {
    if (offset < phase.duration_sec) {
      return config.base_rate_rps * phase.rate_multiplier;
    }
    offset -= phase.duration_sec;
  }
  return config.base_rate_rps * config.burst_phases.back().rate_multiplier;
}

// Maximum of ArrivalRateAt over all t — the thinning envelope.
double EnvelopeRate(const ArrivalConfig& config) {
  switch (config.kind) {
    case ArrivalKind::kPoisson:
      return config.base_rate_rps;
    case ArrivalKind::kDiurnal:
      return config.base_rate_rps * (1.0 + config.diurnal_amplitude);
    case ArrivalKind::kBurst: {
      double peak = 1.0;
      for (const BurstPhase& phase : config.burst_phases) {
        peak = std::max(peak, phase.rate_multiplier);
      }
      return config.base_rate_rps * peak;
    }
    case ArrivalKind::kFlashCrowd:
      return config.base_rate_rps * std::max(1.0, config.flash_multiplier);
  }
  return config.base_rate_rps;
}

}  // namespace

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      peak_(EnvelopeRate(config)),
      mean_gap_(1.0 / peak_) {
  CHECK_GT(config_.base_rate_rps, 0.0);
  if (config_.kind == ArrivalKind::kDiurnal) {
    CHECK_GT(config_.diurnal_period_sec, 0.0);
    CHECK_GE(config_.diurnal_amplitude, 0.0);
    CHECK_LE(config_.diurnal_amplitude, 1.0);
  }
  if (config_.kind == ArrivalKind::kFlashCrowd) {
    CHECK_GE(config_.flash_start_sec, 0.0);
    CHECK_GT(config_.flash_duration_sec, 0.0);
    CHECK_GE(config_.flash_multiplier, 0.0);
  }
  for (const BurstPhase& phase : config_.burst_phases) {
    CHECK_GT(phase.duration_sec, 0.0);
    CHECK_GE(phase.rate_multiplier, 0.0);
    cycle_sec_ += phase.duration_sec;
  }
  if (config_.kind == ArrivalKind::kBurst && !config_.burst_phases.empty()) {
    // An all-zero cycle never accepts a thinning candidate: Next() would
    // spin forever.
    CHECK(std::any_of(config_.burst_phases.begin(),
                      config_.burst_phases.end(),
                      [](const BurstPhase& phase) {
                        return phase.rate_multiplier > 0.0;
                      }))
        << "every kBurst phase has rate_multiplier 0";
  }
}

double ArrivalRateAt(const ArrivalConfig& config, double t) {
  switch (config.kind) {
    case ArrivalKind::kPoisson:
      return config.base_rate_rps;
    case ArrivalKind::kDiurnal: {
      const double phase = 2.0 * M_PI * t / config.diurnal_period_sec;
      return std::max(
          0.0, config.base_rate_rps *
                   (1.0 + config.diurnal_amplitude * std::sin(phase)));
    }
    case ArrivalKind::kBurst: {
      double cycle_sec = 0.0;
      for (const BurstPhase& phase : config.burst_phases) {
        cycle_sec += phase.duration_sec;
      }
      if (cycle_sec <= 0.0) {
        return config.base_rate_rps;
      }
      double offset = std::fmod(t, cycle_sec);
      if (offset < 0.0) {
        offset += cycle_sec;
      }
      return BurstPhaseRate(config, offset);
    }
    case ArrivalKind::kFlashCrowd: {
      const bool in_flash =
          t >= config.flash_start_sec &&
          t < config.flash_start_sec + config.flash_duration_sec;
      return in_flash ? config.base_rate_rps * config.flash_multiplier
                      : config.base_rate_rps;
    }
  }
  return config.base_rate_rps;
}

double ArrivalGenerator::RateAt(double t) const {
  return ArrivalRateAt(config_, t);
}

double ArrivalGenerator::CycleOffset(double t) {
  if (!(t >= cycle_base_ && t < cycle_next_)) {
    const double k = std::floor(t / cycle_sec_);
    cycle_base_ = k * cycle_sec_;
    cycle_next_ = (k + 1.0) * cycle_sec_;
    // When both products are exact (a zero fma residual) and bracket t,
    // k = floor(t / cycle) exactly, and t - k * cycle is the exact fmod
    // result, which is representable, so the subtraction returns it.
    cycle_exact_ = std::fma(k, cycle_sec_, -cycle_base_) == 0.0 &&
                   std::fma(k + 1.0, cycle_sec_, -cycle_next_) == 0.0 &&
                   t >= cycle_base_ && t < cycle_next_;
  }
  return cycle_exact_ ? t - cycle_base_ : std::fmod(t, cycle_sec_);
}

double ArrivalGenerator::CandidateRate(double t) {
  if (config_.kind != ArrivalKind::kBurst || cycle_sec_ <= 0.0) {
    return ArrivalRateAt(config_, t);
  }
  return BurstPhaseRate(config_, CycleOffset(t));
}

double ArrivalGenerator::Next() {
  for (;;) {
    t_ += rng_.NextExponential(mean_gap_);
    // One uniform per candidate regardless of shape keeps the stream
    // layout identical across kinds (see the header).
    const double accept = rng_.NextDouble();
    if (accept * peak_ < CandidateRate(t_)) {
      return t_;
    }
  }
}

}  // namespace copart
