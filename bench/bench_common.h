// Shared helpers for the per-figure bench binaries.
//
// Common flags:
//   --quick          smoke-test scale (fewer steps; noisier numbers)
//   --threads N      grid-runner worker count (default: hardware)
//                    (numeric flags must be whole integers; anything else
//                    exits 2 with a usage message)
//   --legacy-gate    route sampling through the pre-optimization gate
//   --workload NAME  workload scenario from the catalog (default:
//                    pretrain-steady; see gate/logit_process.h)
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

#ifndef FLEXMOE_BENCH_BENCH_COMMON_H_
#define FLEXMOE_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/step_executor.h"

namespace flexmoe {
namespace bench {

/// True if `flag` (e.g. "--quick") was passed.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Value of "`flag` <value>" or `fallback` when absent.
inline const char* FlagValue(int argc, char** argv, const char* flag,
                             const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Value of "`flag` N" as an int, or `fallback` when the flag is absent.
/// The whole value must be a base-10 integer in [lo, hi]: "abc", "4x", "",
/// a missing value or one out of range is a usage error (message on
/// stderr, exit 2), never a silent default.
inline int IntFlagValue(int argc, char** argv, const char* flag,
                        int fallback, int lo = INT_MIN, int hi = INT_MAX) {
  if (!HasFlag(argc, argv, flag)) return fallback;
  const char* text = FlagValue(argc, argv, flag, nullptr);
  bool ok = text != nullptr &&
            (text[0] == '-' || text[0] == '+' ||
             (text[0] >= '0' && text[0] <= '9'));
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
      std::fprintf(stderr, "usage: %s expects an integer value, got '%s'\n",
                   flag, text == nullptr ? "" : text);
    } else {
      std::fprintf(stderr,
                   "usage: %s expects an integer value in [%d, %d], got "
                   "'%s'\n",
                   flag, lo, hi, text == nullptr ? "" : text);
    }
    std::exit(2);
  }
  return static_cast<int>(value);
}

/// True if "--quick" was passed: benches then shrink step counts to smoke-
/// test scale (used by CI-style runs; numbers become noisier).
inline bool QuickMode(int argc, char** argv) {
  return HasFlag(argc, argv, "--quick");
}

/// Worker count for grid benches: "--threads N", default 0 (hardware).
inline int GridThreads(int argc, char** argv) {
  return IntFlagValue(argc, argv, "--threads", 0);
}

/// True if "--legacy-gate" was passed: run the pre-optimization sampler.
inline bool LegacyGate(int argc, char** argv) {
  return HasFlag(argc, argv, "--legacy-gate");
}

/// Workload scenario name: "--workload NAME", default pretrain-steady.
inline const char* WorkloadName(int argc, char** argv) {
  return FlagValue(argc, argv, "--workload", "pretrain-steady");
}

/// Serving request-size mix: "--size-mix fixed|heavy|both", default both.
inline const char* SizeMixName(int argc, char** argv) {
  return FlagValue(argc, argv, "--size-mix", "both");
}

/// Serving admission policy: "--admission edf|sjf", default edf.
inline const char* AdmissionPolicy(int argc, char** argv) {
  return FlagValue(argc, argv, "--admission", "edf");
}

/// MoE-leg pipelining depth: "--pipeline-chunks K" in
/// [0, kMaxPipelineChunks], default 1 (unpipelined).
inline int PipelineChunks(int argc, char** argv) {
  return IntFlagValue(argc, argv, "--pipeline-chunks", 1, 0,
                      kMaxPipelineChunks);
}

/// The flag set every grid bench shares, parsed once (previously each
/// bench's main() re-assembled the same four calls).
struct CommonFlags {
  bool quick = false;
  int threads = 0;       ///< grid-runner workers; 0 = hardware
  bool legacy_gate = false;
  const char* workload = "pretrain-steady";
  const char* size_mix = "both";  ///< serving benches only
  const char* admission = "edf";  ///< serving benches only
  int pipeline_chunks = 1;        ///< MoE-leg overlap depth (1 = unpipelined)
  /// Observability export paths ("" = not requested). Any non-empty path
  /// means the bench should run its designated headline cell with
  /// observability enabled and export the artifacts.
  const char* trace_out = "";
  const char* metrics_out = "";
  const char* decisions_out = "";

  bool ObservabilityRequested() const {
    return trace_out[0] != '\0' || metrics_out[0] != '\0' ||
           decisions_out[0] != '\0';
  }
};

inline CommonFlags ParseCommonFlags(int argc, char** argv) {
  CommonFlags flags;
  flags.quick = QuickMode(argc, argv);
  flags.threads = GridThreads(argc, argv);
  flags.legacy_gate = LegacyGate(argc, argv);
  flags.workload = WorkloadName(argc, argv);
  flags.size_mix = SizeMixName(argc, argv);
  flags.admission = AdmissionPolicy(argc, argv);
  flags.pipeline_chunks = PipelineChunks(argc, argv);
  flags.trace_out = FlagValue(argc, argv, "--trace-out", "");
  flags.metrics_out = FlagValue(argc, argv, "--metrics-out", "");
  flags.decisions_out = FlagValue(argc, argv, "--decisions-out", "");
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
