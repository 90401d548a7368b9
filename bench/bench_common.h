// Shared helpers for the per-figure bench binaries.
//
// Every bench parses its command line with ParseCommonFlags, which accepts
// the flags below (each bench reads the ones that apply to it):
//   --quick          smoke-test scale (fewer steps; noisier numbers)
//   --threads N      grid-runner worker count (default: hardware)
//   --workload NAME  workload scenario from the catalog (default:
//                    pretrain-steady; the suite benches run every scenario
//                    when absent; see gate/logit_process.h)
//   --size-mix NAME  serving request-size mix: fixed | heavy | both
//                    (default both; see gate/request_source.h)
//   --admission P    serving admission policy for sized cells: edf | sjf
//                    (default edf; see core/serve_executor.h)
//   --pipeline-chunks K  MoE-leg A2A/compute overlap depth in
//                    [0, kMaxPipelineChunks] (default 1 = unpipelined,
//                    byte-identical; 0 = auto-K; see core/step_executor.h)
//   --trace-out F    export a Chrome trace-event JSON of the headline run
//   --metrics-out F  export the metrics-registry JSON snapshot
//   --decisions-out F  export the policy decision audit JSONL
//                    (any of the three enables observability for the runs
//                    the bench designates; see src/obs/)
//   --digests PATH   write per-cell digests (workload and serving suites)
//   --out PATH       JSON output path (bench_micro_core)
//   --large-ep       run the G = 512 large-EP cells (bench_micro_core)
//   --extra NAME=X   record an external number X (bench_micro_core;
//                    repeatable)
// Anything else is a usage error: an unknown flag, a flag missing its
// value, a number that is not a whole integer in range, an --extra that is
// not NAME=<finite number>, or a --workload outside the catalog. Each
// prints a usage line on stderr and exits 2 before the bench does any work.

#ifndef FLEXMOE_BENCH_BENCH_COMMON_H_
#define FLEXMOE_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/step_executor.h"
#include "gate/logit_process.h"
#include "util/string_util.h"

namespace flexmoe {
namespace bench {

/// Prints "usage: `what`" on stderr and exits 2.
[[noreturn]] inline void UsageError(const std::string& what) {
  std::fprintf(stderr, "usage: %s\n", what.c_str());
  std::exit(2);
}

/// `text` as the value of integer flag `flag`. The whole value must be a
/// base-10 integer in [lo, hi]: "abc", "4x", "" or one out of range is a
/// usage error, never a silent default.
inline int IntFlagValue(const char* flag, const char* text, int lo = INT_MIN,
                        int hi = INT_MAX) {
  bool ok = text[0] == '-' || text[0] == '+' ||
            (text[0] >= '0' && text[0] <= '9');
  long value = 0;
  if (ok) {
    char* end = nullptr;
    errno = 0;
    value = std::strtol(text, &end, 10);
    ok = end != text && *end == '\0' && errno == 0 && value >= lo &&
         value <= hi;
  }
  if (!ok) {
    if (lo == INT_MIN && hi == INT_MAX) {
      UsageError(StrFormat("%s expects an integer value, got '%s'", flag,
                           text));
    }
    UsageError(StrFormat("%s expects an integer value in [%d, %d], got '%s'",
                         flag, lo, hi, text));
  }
  return static_cast<int>(value);
}

/// The flags every bench shares, parsed in one strict pass.
struct CommonFlags {
  bool quick = false;
  int threads = 0;       ///< grid-runner workers; 0 = hardware
  const char* workload = "pretrain-steady";
  bool workload_given = false;    ///< suite benches: absent = all scenarios
  const char* size_mix = "both";  ///< serving benches only
  const char* admission = "edf";  ///< serving benches only
  int pipeline_chunks = 1;        ///< MoE-leg overlap depth (1 = unpipelined)
  /// Observability export paths ("" = not requested). Any non-empty path
  /// means the bench should run its designated headline cell with
  /// observability enabled and export the artifacts.
  const char* trace_out = "";
  const char* metrics_out = "";
  const char* decisions_out = "";
  const char* digests = "";              ///< suite benches; "" = none
  const char* out = "BENCH_micro.json";  ///< bench_micro_core
  bool large_ep = false;                 ///< bench_micro_core
  /// bench_micro_core: externally measured (name, value) pairs.
  std::vector<std::pair<std::string, double>> extras;

  bool ObservabilityRequested() const {
    return trace_out[0] != '\0' || metrics_out[0] != '\0' ||
           decisions_out[0] != '\0';
  }
};

inline CommonFlags ParseCommonFlags(int argc, char** argv) {
  CommonFlags flags;
  const std::pair<const char*, const char**> text_flags[] = {
      {"--workload", &flags.workload},
      {"--size-mix", &flags.size_mix},
      {"--admission", &flags.admission},
      {"--trace-out", &flags.trace_out},
      {"--metrics-out", &flags.metrics_out},
      {"--decisions-out", &flags.decisions_out},
      {"--digests", &flags.digests},
      {"--out", &flags.out}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      flags.quick = true;
      continue;
    }
    if (flag == "--large-ep") {
      flags.large_ep = true;
      continue;
    }
    const char** text_slot = nullptr;
    for (const auto& [name, slot] : text_flags) {
      if (flag == name) text_slot = slot;
    }
    if (text_slot == nullptr && flag != "--threads" &&
        flag != "--pipeline-chunks" && flag != "--extra") {
      UsageError(StrFormat("unknown flag '%s' (see bench/bench_common.h)",
                           flag.c_str()));
    }
    // No flag value starts with "--": one that does is the next flag.
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      UsageError(StrFormat("%s expects a value", flag.c_str()));
    }
    const char* value = argv[++i];
    if (text_slot != nullptr) {
      *text_slot = value;
      if (flag == "--workload") flags.workload_given = true;
    } else if (flag == "--threads") {
      flags.threads = IntFlagValue("--threads", value);
    } else if (flag == "--pipeline-chunks") {
      flags.pipeline_chunks =
          IntFlagValue("--pipeline-chunks", value, 0, kMaxPipelineChunks);
    } else {
      const char* eq = std::strchr(value, '=');
      char* end = nullptr;
      const double x = eq == nullptr ? 0.0 : std::strtod(eq + 1, &end);
      if (eq == nullptr || eq == value || end == eq + 1 || *end != '\0' ||
          !std::isfinite(x)) {
        UsageError(StrFormat("--extra expects NAME=<finite number>, got '%s'",
                             value));
      }
      flags.extras.emplace_back(std::string(value, eq), x);
    }
  }
  if (flags.workload_given && !IsKnownScenario(flags.workload)) {
    UsageError(StrFormat("unknown --workload '%s' (scenarios: %s)",
                         flags.workload,
                         Join(ScenarioCatalog(), ", ").c_str()));
  }
  return flags;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("==========================================================\n");
}

}  // namespace bench
}  // namespace flexmoe

#endif  // FLEXMOE_BENCH_BENCH_COMMON_H_
