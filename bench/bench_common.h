// Shared helpers for bench_paper, the one bench binary: its strict flag
// parser and its claim rows.
//
// ParseCommonFlags accepts the flags below. The driver reads the first four
// itself; every other flag is read only by the registry entries that
// declare it (bench_paper.cc, `Figure::reads`):
//   --quick          smoke-test scale (fewer steps; noisier numbers)
//   --threads N      grid-runner worker count; 0 (the default) = hardware
//   --figure NAME    run one entry of the registry (default: all; the usage
//                    line of a bad name lists the registry)
//   --claims-out F   write every claim row the run checked as JSON
//   --workload NAME  catalog scenario (gate/logit_process.h) of fig5, fig7b
//                    and the ablations (default pretrain-steady), and of
//                    workload-suite and serving-slo (default: every one they
//                    cover; serving-slo covers all but finetune-shift)
//   --size-mix NAME  serving-slo: request-size mix fixed | heavy | both
//                    (default both; see gate/request_source.h)
//   --admission P    serving-slo: admission policy for sized cells:
//                    edf | sjf (default edf; see core/serve_executor.h)
//   --pipeline-chunks K  workload-suite and serving-slo: MoE-leg A2A/compute
//                    overlap depth in [0, kMaxPipelineChunks] (default 1 =
//                    unpipelined; 0 = auto-K; see core/step_executor.h)
//   --trace-out F, --metrics-out F, --decisions-out F
//                    serving-slo: run its traced headline cell and export
//                    the Chrome trace, the metrics snapshot or the policy
//                    decision audit (see src/obs/)
//   --digests PATH   workload-suite or serving-slo: write per-cell metrics
//                    digests; exactly one of the two must be selected
// Anything else is a usage error: an unknown flag, a flag missing its
// value, a number that is not a whole integer in range (--threads below 0
// included), a --workload, --size-mix or --admission outside its set, a
// --figure outside the registry, a flag that no selected entry reads, a
// --digests without exactly one digest-writing entry, and a --workload that
// serving-slo does not cover. Each prints a usage line on stderr and exits
// 2 before the bench prints or runs anything.

#ifndef FLEXMOE_BENCH_BENCH_COMMON_H_
#define FLEXMOE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/step_executor.h"
#include "gate/logit_process.h"
#include "util/file_io.h"
#include "util/string_util.h"
#include "util/table.h"

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
  int64_t value = 0;
  if (!ParseInt64(text, &value) || value < lo || value > hi) {
    if (lo == INT_MIN && hi == INT_MAX) {
      UsageError(StrFormat("%s expects an integer value, got '%s'", flag,
                           text));
    }
    UsageError(StrFormat("%s expects an integer value in [%d, %d], got '%s'",
                         flag, lo, hi, text));
  }
  return static_cast<int>(value);
}

/// The flags that registry entries read, in bit order: kEntryFlags[i] has
/// the bit 1u << i in CommonFlags::given and in `Figure::reads`.
constexpr const char* kEntryFlags[] = {
    "--workload",    "--size-mix",    "--admission",     "--pipeline-chunks",
    "--trace-out",   "--metrics-out", "--decisions-out", "--digests"};
enum FlagBit : unsigned {
  kWorkloadFlag = 1u << 0,
  kSizeMixFlag = 1u << 1,
  kAdmissionFlag = 1u << 2,
  kPipelineChunksFlag = 1u << 3,
  kTraceOutFlag = 1u << 4,
  kMetricsOutFlag = 1u << 5,
  kDecisionsOutFlag = 1u << 6,
  kDigestsFlag = 1u << 7,
};

/// The parsed command line.
struct CommonFlags {
  bool quick = false;
  int threads = 0;  ///< grid-runner workers; 0 = hardware
  const char* workload = "pretrain-steady";
  const char* size_mix = "both";
  const char* admission = "edf";
  int pipeline_chunks = 1;  ///< MoE-leg overlap depth (1 = unpipelined)
  /// Observability export paths ("" = not requested). Any non-empty path
  /// runs serving-slo's traced headline cell and exports the artifacts.
  const char* trace_out = "";
  const char* metrics_out = "";
  const char* decisions_out = "";
  const char* digests = "";     ///< "" = none
  const char* figure = "";      ///< "" = every registry entry
  const char* claims_out = "";  ///< claim-row JSON path; "" = none
  /// The FlagBits of the entry flags given on the command line.
  unsigned given = 0;

  bool Given(unsigned bit) const { return (given & bit) != 0; }
  bool ObservabilityRequested() const {
    return trace_out[0] != '\0' || metrics_out[0] != '\0' ||
           decisions_out[0] != '\0';
  }
};

/// Parses argv strictly. `figures` is the registry: a --figure outside it
/// is a usage error.
inline CommonFlags ParseCommonFlags(int argc, char** argv,
                                    const std::vector<std::string>& figures) {
  CommonFlags flags;
  const std::pair<const char*, const char**> text_flags[] = {
      {"--workload", &flags.workload},
      {"--size-mix", &flags.size_mix},
      {"--admission", &flags.admission},
      {"--trace-out", &flags.trace_out},
      {"--metrics-out", &flags.metrics_out},
      {"--decisions-out", &flags.decisions_out},
      {"--digests", &flags.digests},
      {"--figure", &flags.figure},
      {"--claims-out", &flags.claims_out}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      flags.quick = true;
      continue;
    }
    const char** text_slot = nullptr;
    for (const auto& [name, slot] : text_flags) {
      if (flag == name) text_slot = slot;
    }
    if (text_slot == nullptr && flag != "--threads" &&
        flag != "--pipeline-chunks") {
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
    } else if (flag == "--threads") {
      flags.threads = IntFlagValue("--threads", value, 0);
    } else {
      flags.pipeline_chunks =
          IntFlagValue("--pipeline-chunks", value, 0, kMaxPipelineChunks);
    }
    for (size_t b = 0; b < std::size(kEntryFlags); ++b) {
      if (flag == kEntryFlags[b]) flags.given |= 1u << b;
    }
  }
  if (flags.Given(kWorkloadFlag) && !IsKnownScenario(flags.workload)) {
    UsageError(StrFormat("unknown --workload '%s' (scenarios: %s)",
                         flags.workload,
                         Join(ScenarioCatalog(), ", ").c_str()));
  }
  const std::string size_mix = flags.size_mix;
  if (size_mix != "fixed" && size_mix != "heavy" && size_mix != "both") {
    UsageError(StrFormat("unknown --size-mix '%s' (fixed | heavy | both)",
                         flags.size_mix));
  }
  const std::string admission = flags.admission;
  if (admission != "edf" && admission != "sjf") {
    UsageError(StrFormat("unknown --admission '%s' (edf | sjf)",
                         flags.admission));
  }
  const std::string figure = flags.figure;
  if (!figure.empty() &&
      std::count(figures.begin(), figures.end(), figure) == 0) {
    UsageError(StrFormat("unknown --figure '%s' (figures: %s)", flags.figure,
                         Join(figures, ", ").c_str()));
  }
  return flags;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("==========================================================\n");
}

/// One paper number or statement next to ours, with the check this
/// reproduction stands behind: a direction or a band, never an exact
/// value. `holds` says whether ours meets it (a miss fails the bench);
/// `paper_agrees` whether the paper's numbers show what ours show (a
/// difference is recorded, never a failure). `paper` is "-" where the
/// paper has nothing to compare.
struct Claim {
  std::string id;
  std::string paper;
  std::string ours;
  /// "measured" (a simulated result), "anchored" (an input the model is
  /// fitted to) or "self-consistent" (the cost model against the engine
  /// it was calibrated from).
  const char* kind = "measured";
  std::string check;
  bool holds = false;
  bool paper_agrees = true;
};

/// A claim on one number, held to the band [lo, hi] (an infinite bound
/// makes it a direction); the paper's number is held to the same band.
inline Claim BandClaim(std::string id, const char* kind, const char* fmt,
                       double paper, double ours, double lo, double hi) {
  const std::string check =
      std::isinf(lo)   ? "< " + StrFormat(fmt, hi)
      : std::isinf(hi) ? "> " + StrFormat(fmt, lo)
                       : "in [" + StrFormat(fmt, lo) + ", " +
                             StrFormat(fmt, hi) + "]";
  auto in_band = [&](double v) { return v >= lo && v <= hi; };
  return {std::move(id), StrFormat(fmt, paper), StrFormat(fmt, ours), kind,
          check, in_band(ours), in_band(paper)};
}

/// Prints `claims` as a figure's claim table.
inline void PrintClaims(const std::vector<Claim>& claims) {
  Table table({"claim", "kind", "paper", "ours", "check", "holds",
               "vs paper"});
  for (const Claim& c : claims) {
    table.AddRow({c.id, c.kind, c.paper, c.ours, c.check,
                  c.holds ? "yes" : "FAIL",
                  c.paper == "-" ? "-" : c.paper_agrees ? "agrees"
                                                        : "differs"});
  }
  std::printf("claims:\n%s\n", table.ToAscii().c_str());
}

/// Writes --claims-out (when given) and names every failed check. Returns
/// the bench's exit code: 1 if a check failed or the file could not be
/// written, else 0.
inline int FinishClaims(const CommonFlags& flags,
                        const std::vector<Claim>& claims) {
  auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (char ch : text) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  };
  int code = 0;
  std::string json = "[";
  for (const Claim& c : claims) {
    if (!c.holds) {
      std::printf("CLAIM VIOLATION: %s\n", c.id.c_str());
      code = 1;
    }
    json += StrFormat(
        "%s\n  {\"id\": %s, \"paper\": %s, \"ours\": %s, \"kind\": \"%s\", "
        "\"check\": %s, \"holds\": %s, \"paper_agrees\": %s}",
        &c == claims.data() ? "" : ",", quoted(c.id).c_str(),
        quoted(c.paper).c_str(), quoted(c.ours).c_str(), c.kind,
        quoted(c.check).c_str(), c.holds ? "true" : "false",
        c.paper == "-" ? "null" : c.paper_agrees ? "true" : "false");
  }
  json += "\n]\n";
  if (flags.claims_out[0] != '\0') {
    const Status written = WriteFile(flags.claims_out, json);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      code = 1;
    }
  }
  return code;
}

}  // namespace bench
}  // namespace flexmoe

#endif  // FLEXMOE_BENCH_BENCH_COMMON_H_
