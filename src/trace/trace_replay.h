// Trace-replay workload adapter (DESIGN.md §15): ingests externally
// captured reuse-distance and arrival profiles — JSON documents with a
// checked schema — into the simulator's native types, so a workload
// measured on real hardware (e.g. an ATD-sampled MRC plus a request-rate
// trace) can be consolidated and governed like the built-in surrogates.
//
// Schema ("copart-trace-v1"; every unknown key is an error — a captured
// trace with a typo'd field must fail loudly, not silently default):
//
//   {
//     "schema": "copart-trace-v1",
//     "name": "captured_kv",            // required, non-empty
//     "short_name": "KV",               // optional (default: name)
//     "category": "latency_critical",   // llc_sensitive | bw_sensitive |
//                                       // both_sensitive | insensitive |
//                                       // latency_critical | batch
//     "reuse": {                        // required
//       "streaming_weight": 0.05,
//       "components": [ {"weight": 0.8, "working_set_bytes": 12582912} ]
//     },
//     "cpu": {                          // required
//       "accesses_per_instr": 0.008, "cpi_exec": 1.2,
//       "mem_latency_cycles": 200.0, "mlp": 2.0, "mba_kappa": 0.1,
//       "num_threads": 8                // optional (default 4)
//     },
//     "phases": [                       // optional
//       {"duration_sec": 15.0, "access_intensity_scale": 2.0,
//        "streaming_scale": 8.0, "cpi_exec_scale": 1.1}
//     ],
//     "serve": {                        // optional (LC workloads)
//       "instructions_per_request": 60000.0, "slo_p95_ms": 1.0,
//       "arrival": {                    // optional
//         "kind": "burst",              // poisson | diurnal | burst |
//                                       // flash_crowd
//         "base_rate_rps": 75000.0,
//         "burst_phases": [ {"duration_sec": 5.0, "rate_multiplier": 2.4} ],
//         "diurnal_period_sec": 60.0, "diurnal_amplitude": 0.5,
//         "flash_start_sec": 40.0, "flash_duration_sec": 20.0,
//         "flash_multiplier": 4.0
//       }
//     }
//   }
//
// Documents are read through common/json_reader (bounded in size and
// nesting depth); structural errors and schema violations come back as
// InvalidArgumentError with a path like "reuse.components[0].weight".
#ifndef COPART_TRACE_TRACE_REPLAY_H_
#define COPART_TRACE_TRACE_REPLAY_H_

#include <string>

#include "common/status.h"
#include "serve/arrival.h"
#include "workload/workload.h"

namespace copart {

// A replayable captured workload: the descriptor for the machine plus an
// optional arrival trace for the serve harness.
struct TraceReplay {
  WorkloadDescriptor workload;
  // True when the document carried serve.arrival; `arrival` is then the
  // configured generator input (otherwise default-constructed).
  bool has_arrival = false;
  ArrivalConfig arrival;
};

// Parses a schema-checked JSON document. InvalidArgumentError on malformed
// JSON (including the json_reader size and depth caps), schema violations,
// unknown keys, or out-of-range values.
Result<TraceReplay> ParseTraceReplay(const std::string& json);

// Reads `path` and parses it. NotFoundError when unreadable;
// InvalidArgumentError past kJsonMaxDocumentBytes, read no further.
Result<TraceReplay> LoadTraceReplayFile(const std::string& path);

}  // namespace copart

#endif  // COPART_TRACE_TRACE_REPLAY_H_
