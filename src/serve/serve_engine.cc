#include "serve/serve_engine.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace copart {

LcServer::LcServer(const LcServerConfig& config, const Rng& rng)
    : config_(config),
      arrival_rng_(rng.Fork(0)),
      service_rng_(rng.Fork(1)),
      generator_(config.arrival, arrival_rng_) {
  CHECK_GT(config_.instructions_per_request, 0.0);
  CHECK_GT(config_.queue_capacity, 0u);
  queue_.slots.assign(config_.queue_capacity, 0.0);
}

void LcServer::StartService() {
  remaining_instructions_ =
      config_.exponential_service
          ? service_rng_.NextExponential(config_.instructions_per_request)
          : config_.instructions_per_request;
  // An exponential draw can be arbitrarily small but never helpfully zero;
  // floor it so a completion always advances time.
  remaining_instructions_ = std::max(remaining_instructions_, 1.0);
  in_service_ = true;
}

void LcServer::RecordCompletion(double completion_time) {
  const double latency = completion_time - queue_.front();
  epoch_sketch_.Record(latency);
  queue_.pop();
  ++total_completions_;
}

EpochServeStats LcServer::AdvanceEpoch(double dt, double ips_capability) {
  CHECK_GT(dt, 0.0);
  const double end = now_ + dt;
  const double mu = std::max(ips_capability, 0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  EpochServeStats stats;
  epoch_sketch_.Clear();

  double cursor = now_;  // Time up to which the in-service request has run.
  for (;;) {
    if (!have_pending_) {
      pending_arrival_ = generator_.Next();
      have_pending_ = true;
    }
    const double completion =
        in_service_ && mu > 0.0 ? cursor + remaining_instructions_ / mu
                                : kInf;
    const double event = std::min(pending_arrival_, completion);
    if (event >= end) {
      // Epoch boundary: progress the in-service request to `end` and stop.
      if (in_service_ && mu > 0.0) {
        remaining_instructions_ =
            std::max(0.0, remaining_instructions_ - (end - cursor) * mu);
      }
      break;
    }
    if (completion <= pending_arrival_) {
      RecordCompletion(completion);
      ++stats.completions;
      cursor = completion;
      if (queue_.size_ > 0) {
        StartService();
      } else {
        in_service_ = false;
        remaining_instructions_ = 0.0;
      }
    } else {
      const double t = pending_arrival_;
      have_pending_ = false;
      if (in_service_ && mu > 0.0) {
        remaining_instructions_ =
            std::max(0.0, remaining_instructions_ - (t - cursor) * mu);
      }
      cursor = t;
      ++stats.arrivals;
      ++total_arrivals_;
      if (queue_.full()) {
        ++stats.drops;
        ++total_drops_;
      } else {
        queue_.push(t);
        if (!in_service_) {
          StartService();
        }
      }
    }
  }

  now_ = end;
  // Bucket counts are integers, so folding the epoch into the run-level
  // sketch once equals recording every completion into both.
  total_sketch_.Merge(epoch_sketch_);
  stats.queue_depth_end = queue_.size_;
  stats.offered_rps = static_cast<double>(stats.arrivals) / dt;
  if (epoch_sketch_.count() > 0) {
    stats.p50_ms = 1e3 * epoch_sketch_.Quantile(0.50);
    stats.p95_ms = 1e3 * epoch_sketch_.Quantile(0.95);
    stats.p99_ms = 1e3 * epoch_sketch_.Quantile(0.99);
  }
  return stats;
}

}  // namespace copart
