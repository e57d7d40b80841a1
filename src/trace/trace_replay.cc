#include "trace/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/json_reader.h"

namespace copart {
namespace {

// --- Schema checking ---
//
// Every reader takes the JSON path of the node for error messages, and
// object readers reject unknown keys.

Status SchemaError(const std::string& path, const std::string& what) {
  return InvalidArgumentError("trace schema error at " + path + ": " + what);
}

Status CheckKnownKeys(const JsonValue& node, const std::string& path,
                      const std::vector<std::string>& known) {
  for (const auto& [key, unused] : *node.object) {
    bool found = false;
    for (const std::string& candidate : known) {
      if (key == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      return SchemaError(path, "unknown key \"" + key + "\"");
    }
  }
  return Status::Ok();
}

Result<double> ReadNumber(const JsonValue& node, const std::string& path,
                          const std::string& key, bool required,
                          double fallback) {
  const JsonValue* value = node.Find(key);
  if (value == nullptr) {
    if (required) {
      return SchemaError(path, "missing required key \"" + key + "\"");
    }
    return fallback;
  }
  if (value->kind != JsonValue::Kind::kNumber) {
    return SchemaError(path + "." + key, "expected a number");
  }
  return value->number;
}

Result<std::string> ReadString(const JsonValue& node, const std::string& path,
                               const std::string& key, bool required,
                               std::string fallback) {
  const JsonValue* value = node.Find(key);
  if (value == nullptr) {
    if (required) {
      return SchemaError(path, "missing required key \"" + key + "\"");
    }
    return fallback;
  }
  if (value->kind != JsonValue::Kind::kString) {
    return SchemaError(path + "." + key, "expected a string");
  }
  return value->string;
}

Result<WorkloadCategory> ParseCategory(const std::string& name,
                                       const std::string& path) {
  if (name == "llc_sensitive") return WorkloadCategory::kLlcSensitive;
  if (name == "bw_sensitive") return WorkloadCategory::kBwSensitive;
  if (name == "both_sensitive") return WorkloadCategory::kBothSensitive;
  if (name == "insensitive") return WorkloadCategory::kInsensitive;
  if (name == "latency_critical") return WorkloadCategory::kLatencyCritical;
  if (name == "batch") return WorkloadCategory::kBatch;
  return SchemaError(path, "unknown category \"" + name + "\"");
}

Result<ReuseProfile> ParseReuse(const JsonValue& node,
                                const std::string& path) {
  if (node.kind != JsonValue::Kind::kObject) {
    return SchemaError(path, "expected an object");
  }
  Status known = CheckKnownKeys(node, path, {"streaming_weight", "components"});
  if (!known.ok()) {
    return known;
  }
  Result<double> streaming =
      ReadNumber(node, path, "streaming_weight", /*required=*/false, 0.0);
  if (!streaming.ok()) {
    return streaming.status();
  }
  if (*streaming < 0.0 || *streaming > 1.0) {
    return SchemaError(path + ".streaming_weight", "must be in [0, 1]");
  }
  const JsonValue* components = node.Find("components");
  if (components == nullptr) {
    return SchemaError(path, "missing required key \"components\"");
  }
  if (components->kind != JsonValue::Kind::kArray) {
    return SchemaError(path + ".components", "expected an array");
  }
  std::vector<ReuseComponent> parsed;
  double weight_sum = *streaming;
  for (size_t i = 0; i < components->array->size(); ++i) {
    const std::string element_path =
        path + ".components[" + std::to_string(i) + "]";
    const JsonValue& element = (*components->array)[i];
    if (element.kind != JsonValue::Kind::kObject) {
      return SchemaError(element_path, "expected an object");
    }
    Status element_known = CheckKnownKeys(element, element_path,
                                          {"weight", "working_set_bytes"});
    if (!element_known.ok()) {
      return element_known;
    }
    Result<double> weight =
        ReadNumber(element, element_path, "weight", /*required=*/true, 0.0);
    if (!weight.ok()) {
      return weight.status();
    }
    Result<double> working_set = ReadNumber(element, element_path,
                                            "working_set_bytes",
                                            /*required=*/true, 0.0);
    if (!working_set.ok()) {
      return working_set.status();
    }
    if (*weight <= 0.0 || *weight > 1.0) {
      return SchemaError(element_path + ".weight", "must be in (0, 1]");
    }
    if (*working_set < 1.0) {
      return SchemaError(element_path + ".working_set_bytes",
                         "must be >= 1");
    }
    weight_sum += *weight;
    parsed.push_back(ReuseComponent{
        .weight = *weight,
        .working_set_bytes = static_cast<uint64_t>(*working_set)});
  }
  if (weight_sum > 1.0 + 1e-9) {
    return SchemaError(path,
                       "component weights + streaming_weight exceed 1");
  }
  return ReuseProfile(std::move(parsed), *streaming);
}

Status ParseCpu(const JsonValue& node, const std::string& path,
                WorkloadDescriptor& workload) {
  if (node.kind != JsonValue::Kind::kObject) {
    return SchemaError(path, "expected an object");
  }
  RETURN_IF_ERROR(CheckKnownKeys(
      node, path,
      {"accesses_per_instr", "cpi_exec", "mem_latency_cycles", "mlp",
       "mba_kappa", "num_threads"}));
  struct Field {
    const char* key;
    double* target;
    bool required;
    double min;
  };
  const Field fields[] = {
      {"accesses_per_instr", &workload.accesses_per_instr, true, 0.0},
      {"cpi_exec", &workload.cpi_exec, true, 1e-9},
      {"mem_latency_cycles", &workload.mem_latency_cycles, false, 1e-9},
      {"mlp", &workload.mlp, false, 1e-9},
      {"mba_kappa", &workload.mba_kappa, false, 0.0},
  };
  for (const Field& field : fields) {
    Result<double> value =
        ReadNumber(node, path, field.key, field.required, *field.target);
    if (!value.ok()) {
      return value.status();
    }
    if (*value < field.min) {
      return SchemaError(path + "." + field.key, "out of range");
    }
    *field.target = *value;
  }
  Result<double> threads = ReadNumber(node, path, "num_threads",
                                      /*required=*/false,
                                      workload.num_threads);
  if (!threads.ok()) {
    return threads.status();
  }
  if (*threads < 1.0 || *threads != std::floor(*threads)) {
    return SchemaError(path + ".num_threads", "must be a positive integer");
  }
  workload.num_threads = static_cast<uint32_t>(*threads);
  return Status::Ok();
}

Status ParsePhases(const JsonValue& node, const std::string& path,
                   WorkloadDescriptor& workload) {
  if (node.kind != JsonValue::Kind::kArray) {
    return SchemaError(path, "expected an array");
  }
  for (size_t i = 0; i < node.array->size(); ++i) {
    const std::string element_path = path + "[" + std::to_string(i) + "]";
    const JsonValue& element = (*node.array)[i];
    if (element.kind != JsonValue::Kind::kObject) {
      return SchemaError(element_path, "expected an object");
    }
    RETURN_IF_ERROR(CheckKnownKeys(element, element_path,
                                   {"duration_sec", "access_intensity_scale",
                                    "streaming_scale", "cpi_exec_scale"}));
    WorkloadPhase phase;
    Result<double> duration = ReadNumber(element, element_path,
                                         "duration_sec", /*required=*/true,
                                         0.0);
    if (!duration.ok()) {
      return duration.status();
    }
    if (*duration <= 0.0) {
      return SchemaError(element_path + ".duration_sec", "must be > 0");
    }
    phase.duration_sec = *duration;
    struct Scale {
      const char* key;
      double* target;
    };
    const Scale scales[] = {
        {"access_intensity_scale", &phase.access_intensity_scale},
        {"streaming_scale", &phase.streaming_scale},
        {"cpi_exec_scale", &phase.cpi_exec_scale},
    };
    for (const Scale& scale : scales) {
      Result<double> value = ReadNumber(element, element_path, scale.key,
                                        /*required=*/false, *scale.target);
      if (!value.ok()) {
        return value.status();
      }
      if (*value <= 0.0) {
        return SchemaError(element_path + "." + scale.key, "must be > 0");
      }
      *scale.target = *value;
    }
    workload.phases.push_back(phase);
  }
  return Status::Ok();
}

Status ParseArrival(const JsonValue& node, const std::string& path,
                    ArrivalConfig& arrival) {
  if (node.kind != JsonValue::Kind::kObject) {
    return SchemaError(path, "expected an object");
  }
  RETURN_IF_ERROR(CheckKnownKeys(
      node, path,
      {"kind", "base_rate_rps", "burst_phases", "diurnal_period_sec",
       "diurnal_amplitude", "flash_start_sec", "flash_duration_sec",
       "flash_multiplier"}));
  Result<std::string> kind =
      ReadString(node, path, "kind", /*required=*/true, "");
  if (!kind.ok()) {
    return kind.status();
  }
  if (*kind == "poisson") {
    arrival.kind = ArrivalKind::kPoisson;
  } else if (*kind == "diurnal") {
    arrival.kind = ArrivalKind::kDiurnal;
  } else if (*kind == "burst") {
    arrival.kind = ArrivalKind::kBurst;
  } else if (*kind == "flash_crowd") {
    arrival.kind = ArrivalKind::kFlashCrowd;
  } else {
    return SchemaError(path + ".kind", "unknown kind \"" + *kind + "\"");
  }
  struct Field {
    const char* key;
    double* target;
    double min;
  };
  const Field fields[] = {
      {"base_rate_rps", &arrival.base_rate_rps, 1e-9},
      {"diurnal_period_sec", &arrival.diurnal_period_sec, 1e-9},
      {"diurnal_amplitude", &arrival.diurnal_amplitude, 0.0},
      {"flash_start_sec", &arrival.flash_start_sec, 0.0},
      {"flash_duration_sec", &arrival.flash_duration_sec, 1e-9},
      {"flash_multiplier", &arrival.flash_multiplier, 0.0},
  };
  for (const Field& field : fields) {
    Result<double> value =
        ReadNumber(node, path, field.key,
                   /*required=*/field.target == &arrival.base_rate_rps,
                   *field.target);
    if (!value.ok()) {
      return value.status();
    }
    if (*value < field.min) {
      return SchemaError(path + "." + field.key, "out of range");
    }
    *field.target = *value;
  }
  if (arrival.diurnal_amplitude > 1.0) {
    return SchemaError(path + ".diurnal_amplitude", "must be in [0, 1]");
  }
  if (const JsonValue* phases = node.Find("burst_phases")) {
    if (phases->kind != JsonValue::Kind::kArray) {
      return SchemaError(path + ".burst_phases", "expected an array");
    }
    for (size_t i = 0; i < phases->array->size(); ++i) {
      const std::string element_path =
          path + ".burst_phases[" + std::to_string(i) + "]";
      const JsonValue& element = (*phases->array)[i];
      if (element.kind != JsonValue::Kind::kObject) {
        return SchemaError(element_path, "expected an object");
      }
      RETURN_IF_ERROR(CheckKnownKeys(element, element_path,
                                     {"duration_sec", "rate_multiplier"}));
      Result<double> duration = ReadNumber(element, element_path,
                                           "duration_sec",
                                           /*required=*/true, 0.0);
      if (!duration.ok()) {
        return duration.status();
      }
      Result<double> multiplier = ReadNumber(element, element_path,
                                             "rate_multiplier",
                                             /*required=*/true, 1.0);
      if (!multiplier.ok()) {
        return multiplier.status();
      }
      if (*duration <= 0.0) {
        return SchemaError(element_path + ".duration_sec", "must be > 0");
      }
      if (*multiplier < 0.0) {
        return SchemaError(element_path + ".rate_multiplier",
                           "must be >= 0");
      }
      arrival.burst_phases.push_back(
          BurstPhase{.duration_sec = *duration,
                     .rate_multiplier = *multiplier});
    }
    if (arrival.kind == ArrivalKind::kBurst &&
        !arrival.burst_phases.empty() &&
        std::none_of(arrival.burst_phases.begin(),
                     arrival.burst_phases.end(),
                     [](const BurstPhase& phase) {
                       return phase.rate_multiplier > 0.0;
                     })) {
      return SchemaError(path + ".burst_phases",
                         "at least one rate_multiplier must be > 0");
    }
  }
  return Status::Ok();
}

Status ParseServe(const JsonValue& node, const std::string& path,
                  TraceReplay& replay) {
  if (node.kind != JsonValue::Kind::kObject) {
    return SchemaError(path, "expected an object");
  }
  RETURN_IF_ERROR(CheckKnownKeys(
      node, path, {"instructions_per_request", "slo_p95_ms", "arrival"}));
  Result<double> ipr = ReadNumber(node, path, "instructions_per_request",
                                  /*required=*/true, 0.0);
  if (!ipr.ok()) {
    return ipr.status();
  }
  Result<double> slo =
      ReadNumber(node, path, "slo_p95_ms", /*required=*/true, 0.0);
  if (!slo.ok()) {
    return slo.status();
  }
  if (*ipr <= 0.0) {
    return SchemaError(path + ".instructions_per_request", "must be > 0");
  }
  if (*slo <= 0.0) {
    return SchemaError(path + ".slo_p95_ms", "must be > 0");
  }
  replay.workload.instructions_per_request = *ipr;
  replay.workload.slo_p95_ms = *slo;
  if (const JsonValue* arrival = node.Find("arrival")) {
    RETURN_IF_ERROR(ParseArrival(*arrival, path + ".arrival",
                                 replay.arrival));
    replay.has_arrival = true;
  }
  return Status::Ok();
}

// Schema-checks a parsed document, or passes its read/parse error through.
Result<TraceReplay> FromDocument(const Result<JsonValue>& document) {
  if (!document.ok()) {
    return document.status();
  }
  if (document->kind != JsonValue::Kind::kObject) {
    return SchemaError("$", "top level must be an object");
  }
  RETURN_IF_ERROR(CheckKnownKeys(*document, "$",
                                 {"schema", "name", "short_name", "category",
                                  "reuse", "cpu", "phases", "serve"}));
  Result<std::string> schema =
      ReadString(*document, "$", "schema", /*required=*/true, "");
  if (!schema.ok()) {
    return schema.status();
  }
  if (*schema != "copart-trace-v1") {
    return SchemaError("$.schema",
                       "unsupported schema \"" + *schema + "\"");
  }
  TraceReplay replay;
  Result<std::string> name =
      ReadString(*document, "$", "name", /*required=*/true, "");
  if (!name.ok()) {
    return name.status();
  }
  if (name->empty()) {
    return SchemaError("$.name", "must be non-empty");
  }
  replay.workload.name = *name;
  Result<std::string> short_name = ReadString(*document, "$", "short_name",
                                              /*required=*/false, *name);
  if (!short_name.ok()) {
    return short_name.status();
  }
  replay.workload.short_name = *short_name;
  Result<std::string> category = ReadString(*document, "$", "category",
                                            /*required=*/false,
                                            "insensitive");
  if (!category.ok()) {
    return category.status();
  }
  Result<WorkloadCategory> parsed_category =
      ParseCategory(*category, "$.category");
  if (!parsed_category.ok()) {
    return parsed_category.status();
  }
  replay.workload.category = *parsed_category;

  const JsonValue* reuse = document->Find("reuse");
  if (reuse == nullptr) {
    return SchemaError("$", "missing required key \"reuse\"");
  }
  Result<ReuseProfile> profile = ParseReuse(*reuse, "$.reuse");
  if (!profile.ok()) {
    return profile.status();
  }
  replay.workload.reuse_profile = *profile;

  const JsonValue* cpu = document->Find("cpu");
  if (cpu == nullptr) {
    return SchemaError("$", "missing required key \"cpu\"");
  }
  RETURN_IF_ERROR(ParseCpu(*cpu, "$.cpu", replay.workload));

  if (const JsonValue* phases = document->Find("phases")) {
    RETURN_IF_ERROR(ParsePhases(*phases, "$.phases", replay.workload));
  }
  if (const JsonValue* serve = document->Find("serve")) {
    RETURN_IF_ERROR(ParseServe(*serve, "$.serve", replay));
  }
  if (replay.workload.category == WorkloadCategory::kLatencyCritical &&
      replay.workload.instructions_per_request <= 0.0) {
    return SchemaError(
        "$", "latency_critical workloads require a \"serve\" section");
  }
  return replay;
}

}  // namespace

Result<TraceReplay> ParseTraceReplay(const std::string& json) {
  return FromDocument(ParseJson(json));
}

Result<TraceReplay> LoadTraceReplayFile(const std::string& path) {
  return FromDocument(ReadJsonFile(path));
}

}  // namespace copart
