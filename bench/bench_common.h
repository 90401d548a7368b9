// Shared helpers for the bench binaries.
//
// Every bench parses its command line with ParseCommonFlags, which accepts
// the flags below (each bench reads the ones that apply to it):
//   --quick          smoke-test scale (fewer steps; noisier numbers)
//   --threads N      grid-runner worker count; 0 (the default) = hardware
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
//   --figure NAME    bench_paper: run one figure of its registry (default:
//                    all; the usage line of a bad name lists the registry)
//   --claims-out F   write the claim rows the bench checked as JSON
// Anything else is a usage error: an unknown flag, a flag missing its
// value, a number that is not a whole integer in range (--threads below 0
// included), a --workload, --size-mix or --admission outside its
// documented set, or a --figure outside the bench's registry. Each prints a
// usage line on stderr and exits 2 before the bench does any work.

#ifndef FLEXMOE_BENCH_BENCH_COMMON_H_
#define FLEXMOE_BENCH_BENCH_COMMON_H_

#include <algorithm>
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
  const char* digests = "";  ///< suite benches; "" = none
  const char* figure = "";   ///< bench_paper; "" = every figure
  const char* claims_out = "";  ///< claim-row JSON path; "" = none

  bool ObservabilityRequested() const {
    return trace_out[0] != '\0' || metrics_out[0] != '\0' ||
           decisions_out[0] != '\0';
  }
};

/// Parses argv strictly. `figures` is the bench's figure registry: a
/// --figure outside it (any --figure, when it is empty) is a usage error.
inline CommonFlags ParseCommonFlags(
    int argc, char** argv, const std::vector<std::string>& figures = {}) {
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
      if (flag == "--workload") flags.workload_given = true;
    } else if (flag == "--threads") {
      flags.threads = IntFlagValue("--threads", value, 0);
    } else {
      flags.pipeline_chunks =
          IntFlagValue("--pipeline-chunks", value, 0, kMaxPipelineChunks);
    }
  }
  if (flags.workload_given && !IsKnownScenario(flags.workload)) {
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
  if (flags.claims_out[0] != '\0' && !WriteFile(flags.claims_out, json)) {
    std::fprintf(stderr, "cannot write %s\n", flags.claims_out);
    code = 1;
  }
  return code;
}

}  // namespace bench
}  // namespace flexmoe

#endif  // FLEXMOE_BENCH_BENCH_COMMON_H_
