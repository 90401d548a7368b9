// flexmoe_sim: command-line experiment runner — the tool a downstream user
// reaches for first. Wraps the experiment harness with flag parsing so any
// system/model/cluster combination can be simulated without writing code.
//
//   ./build/examples/flexmoe_sim --system=flexmoe --model=gpt-moe-s
//       --gpus=32 --steps=200 --balance-coef=0.001 --csv=run.csv
//
// Run with --help for all flags.

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.h"
#include "harness/reporters.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

void PrintUsage() {
  std::printf(R"(flexmoe_sim — simulate distributed MoE training systems

flags:
  --system=NAME        flexmoe | deepspeed | fastermoe | swipe  [flexmoe]
  --model=NAME         bert-moe-s|bert-moe-l|gpt-moe-s|gpt-moe-l|
                       swin-moe-s|swin-moe-l                    [gpt-moe-s]
  --gpus=N             cluster size, multiple of 8              [32]
  --steps=N            measured training steps                  [120]
  --warmup=N           steps excluded from aggregates           [20]
  --seed=N             workload seed                            [42]
  --balance-coef=X     balance-loss coefficient                 [0.001]
  --capacity=X         DeepSpeed capacity factor (0 = off)      [1.0]
  --slots=N            vExpert slots per GPU (0 = auto)         [0]
  --threshold=X        FlexMoE balance-ratio trigger            [1.15]
  --metric=NAME        max | variance                           [max]
  --policy=NAME        dynamic | static                         [dynamic]
  --interval=N         static re-plan interval (steps)          [50]
  --per-step           print per-step metrics
  --csv=PATH           write the per-step series as CSV
  --help               this text
)");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (StartsWith(arg, prefix)) {
    *out = std::string(arg).substr(prefix.size());
    return true;
  }
  return false;
}

// Strict value parsing: the whole value must be a number (no trailing
// characters), in range, and for floats finite. A bad value prints an
// error line and returns false; it never falls back to a default.
void PrintBadValue(const char* flag, const char* expected,
                   const std::string& value) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", flag, expected,
               value.c_str());
}

bool ParseInt(const char* flag, const std::string& value, int* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno != 0 || v < INT_MIN ||
      v > INT_MAX) {
    PrintBadValue(flag, "an integer", value);
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseSeed(const char* flag, const std::string& value, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  // strtoull would silently negate a leading '-'.
  if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) {
    PrintBadValue(flag, "a non-negative integer", value);
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseFinite(const char* flag, const std::string& value, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    PrintBadValue(flag, "a finite number", value);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  ExperimentOptions options;
  options.system = "flexmoe";
  options.model = GptMoES();
  options.num_gpus = 32;
  options.measure_steps = 120;
  options.warmup_steps = 20;

  bool per_step = false;
  std::string csv_path;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      return 0;
    }
    if (std::strcmp(arg, "--per-step") == 0) {
      per_step = true;
    } else if (ParseFlag(arg, "system", &value)) {
      options.system = value;
    } else if (ParseFlag(arg, "model", &value)) {
      const auto model = ModelByName(value);
      if (!model.ok()) {
        std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
        return 1;
      }
      options.model = *model;
    } else if (ParseFlag(arg, "gpus", &value)) {
      if (!ParseInt("gpus", value, &options.num_gpus)) return 1;
    } else if (ParseFlag(arg, "steps", &value)) {
      if (!ParseInt("steps", value, &options.measure_steps)) return 1;
    } else if (ParseFlag(arg, "warmup", &value)) {
      if (!ParseInt("warmup", value, &options.warmup_steps)) return 1;
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseSeed("seed", value, &options.seed)) return 1;
    } else if (ParseFlag(arg, "balance-coef", &value)) {
      if (!ParseFinite("balance-coef", value, &options.balance_coef)) {
        return 1;
      }
    } else if (ParseFlag(arg, "capacity", &value)) {
      if (!ParseFinite("capacity", value, &options.capacity_factor)) {
        return 1;
      }
    } else if (ParseFlag(arg, "slots", &value)) {
      if (!ParseInt("slots", value, &options.slots_per_gpu)) return 1;
    } else if (ParseFlag(arg, "threshold", &value)) {
      if (!ParseFinite("threshold", value, &options.scheduler.threshold)) {
        return 1;
      }
    } else if (ParseFlag(arg, "metric", &value)) {
      const std::string metric = ToLower(value);
      if (metric == "max") {
        options.scheduler.metric = TriggerMetric::kMaxRatio;
      } else if (metric == "variance") {
        options.scheduler.metric = TriggerMetric::kVariance;
      } else {
        PrintBadValue("metric", "max or variance", value);
        return 1;
      }
    } else if (ParseFlag(arg, "policy", &value)) {
      const std::string policy = ToLower(value);
      if (policy == "static") {
        options.scheduler.policy = TriggerPolicy::kStaticInterval;
        options.executor.blocking = true;
      } else if (policy != "dynamic") {
        PrintBadValue("policy", "dynamic or static", value);
        return 1;
      }
    } else if (ParseFlag(arg, "interval", &value)) {
      if (!ParseInt("interval", value,
                    &options.scheduler.static_interval_steps)) {
        return 1;
      }
    } else if (ParseFlag(arg, "csv", &value)) {
      csv_path = value;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s' (try --help)\n", arg);
      return 1;
    }
  }

  const Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 1;
  }

  std::printf("simulating %s on %s, %d GPUs, %d steps (seed %llu)...\n",
              options.system.c_str(), options.model.name.c_str(),
              options.num_gpus, options.measure_steps,
              static_cast<unsigned long long>(options.seed));
  const auto report = RunExperiment(options);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%s\n", ReportLine(*report).c_str());
  if (per_step) {
    std::printf("\nstep | time(ms) | balance | tok-eff | ops\n");
    for (const StepMetrics& m : report->stats.steps()) {
      std::printf("%4lld | %8.2f | %7.2f | %7.3f | %d\n",
                  static_cast<long long>(m.step),
                  m.step_seconds * 1e3, m.balance_ratio, m.token_efficiency,
                  m.ops_applied);
    }
  }
  if (!csv_path.empty()) {
    Table csv({"step", "step_seconds", "balance_ratio", "token_efficiency",
               "expert_efficiency", "gpu_utilization", "ops_applied"});
    for (const StepMetrics& m : report->stats.steps()) {
      csv.AddRow({StrFormat("%lld", static_cast<long long>(m.step)),
                  StrFormat("%.6f", m.step_seconds),
                  StrFormat("%.4f", m.balance_ratio),
                  StrFormat("%.4f", m.token_efficiency),
                  StrFormat("%.4f", m.expert_efficiency),
                  StrFormat("%.4f", m.gpu_utilization),
                  StrFormat("%d", m.ops_applied)});
    }
    if (!WriteFile(csv_path, csv.ToCsv())) {
      std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote per-step series to %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace flexmoe

int main(int argc, char** argv) { return flexmoe::Main(argc, argv); }
