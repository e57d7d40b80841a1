// Deterministic discrete-event request server for one LC app.
//
// The LC surrogate's cores are modelled as one pooled FIFO server whose
// service rate each epoch is the app's effective IPS under its current
// CLOS mask + MBA level (AppEpochSnapshot::ips_capability) divided by the
// per-request instruction demand. Arrivals are open-loop (ArrivalGenerator,
// the offered load never backs off), the queue is a fixed-capacity ring of
// arrival timestamps (allocation-free after construction; the engine drops
// at the tail when full), and every completed request's sojourn time is
// recorded into a per-epoch LatencySketch (the controller's feedback
// signal), which AdvanceEpoch() merges into a cumulative one (the
// run-level tail estimate) when the epoch ends.
//
// AdvanceEpoch() runs the event loop over exactly one control period:
// events are the held pending arrival and the head-of-line completion,
// processed in time order with completions winning ties. Service demand
// is drawn when a request enters service, so the Rng draw order is fixed
// by the (deterministic) event sequence; the in-flight request's residual
// demand carries across epochs, which is how a mid-request CLOS resize
// changes its completion time. The conservation invariant
//
//   total_arrivals == total_completions + total_drops + queue_depth
//
// holds after every epoch (asserted by tests/serve_engine_test.cc).
#ifndef COPART_SERVE_SERVE_ENGINE_H_
#define COPART_SERVE_SERVE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/arrival.h"
#include "serve/latency_sketch.h"

namespace copart {

struct LcServerConfig {
  std::string name = "lc";
  ArrivalConfig arrival;
  // Mean instructions retired per request (service demand).
  double instructions_per_request = 60000.0;
  // Service-demand distribution: exponential with the mean above, or
  // deterministic (every request costs exactly the mean) when false.
  bool exponential_service = true;
  // Queue slots; arrivals beyond this are dropped (counted, not served).
  size_t queue_capacity = 1 << 16;
};

// One epoch's serving telemetry.
struct EpochServeStats {
  uint64_t arrivals = 0;     // Offered this epoch (including drops).
  uint64_t completions = 0;
  uint64_t drops = 0;
  uint64_t queue_depth_end = 0;
  double offered_rps = 0.0;  // arrivals / dt.
  // Sojourn-time percentiles of THIS epoch's completions (0 when none).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

class LcServer {
 public:
  // `rng` is the server's private stream; the constructor forks it into
  // independent arrival and service-demand streams, so multiple servers
  // seeded via Rng::Fork(index) never interleave draws.
  LcServer(const LcServerConfig& config, const Rng& rng);

  // Advances the server by one control period of `dt` seconds during
  // which the app's service capacity is `ips_capability` (instructions/s;
  // 0 stalls service, arrivals still queue).
  EpochServeStats AdvanceEpoch(double dt, double ips_capability);

  const LcServerConfig& config() const { return config_; }
  double now() const { return now_; }

  uint64_t total_arrivals() const { return total_arrivals_; }
  uint64_t total_completions() const { return total_completions_; }
  uint64_t total_drops() const { return total_drops_; }
  uint64_t queue_depth() const { return queue_.size_; }

  // Cumulative sojourn-time sketch over the whole run (complete at every
  // epoch boundary).
  const LatencySketch& cumulative_latency() const { return total_sketch_; }

 private:
  struct Ring {
    std::vector<double> slots;  // Arrival timestamps, FIFO order.
    size_t head = 0;
    size_t size_ = 0;
    bool full() const { return size_ == slots.size(); }
    double front() const { return slots[head]; }
    // head and head + size_ stay below 2 * slots.size(), so one
    // conditional subtraction wraps them.
    void push(double t) {
      size_t tail = head + size_;
      if (tail >= slots.size()) {
        tail -= slots.size();
      }
      slots[tail] = t;
      ++size_;
    }
    void pop() {
      if (++head == slots.size()) {
        head = 0;
      }
      --size_;
    }
  };

  void StartService();
  void RecordCompletion(double completion_time);

  LcServerConfig config_;
  Rng arrival_rng_;
  Rng service_rng_;
  ArrivalGenerator generator_;

  double now_ = 0.0;
  Ring queue_;
  // Next arrival drawn from the generator but not yet offered (its time
  // may lie beyond the current epoch).
  double pending_arrival_ = 0.0;
  bool have_pending_ = false;
  // Residual instruction demand of the head-of-line request, valid while
  // in_service_ (it entered service and survives epoch boundaries).
  double remaining_instructions_ = 0.0;
  bool in_service_ = false;

  LatencySketch epoch_sketch_;
  LatencySketch total_sketch_;
  uint64_t total_arrivals_ = 0;
  uint64_t total_completions_ = 0;
  uint64_t total_drops_ = 0;
};

}  // namespace copart

#endif  // COPART_SERVE_SERVE_ENGINE_H_
