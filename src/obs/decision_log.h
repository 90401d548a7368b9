// Policy decision audit log: one structured record per Scheduler/PolicyMaker
// invocation, exported as JSONL. This is what turns "the planner lags tenant
// switches by a few batches" from bench folklore into a measurable quantity:
// given the switch steps of a workload and a run's decision log,
// PolicyAdoptionLags() computes, per switch, how many steps passed before a
// plan was actually adopted.
//
// A record is appended only when the scheduler RAN for a (step, layer) —
// steps skipped by the per-layer planning backoff produce no record, so the
// log reflects the decisions the system really made (the backoff gap IS part
// of the measured lag).

#ifndef FLEXMOE_OBS_DECISION_LOG_H_
#define FLEXMOE_OBS_DECISION_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace flexmoe {
namespace obs {

/// \brief One PolicyMaker/Scheduler invocation.
struct PolicyDecisionRecord {
  int64_t step = 0;
  int layer = 0;
  /// Trigger inputs: the balance metric the scheduler saw vs. its
  /// threshold, and whether the trigger was forced (membership change).
  double trigger_metric = 0.0;
  double threshold = 0.0;
  bool forced = false;
  bool triggered = false;
  /// Search effort and outcome: Algorithm 2 candidates scored (Eq. 5
  /// evaluations), accepted Expand/Shrink rounds, background moves.
  int64_t candidates_evaluated = 0;
  int plan_rounds = 0;
  int migrations = 0;
  int evacuations = 0;
  int ops_emitted = 0;
  /// Estimated benefit: the planner's objective (8-norm over per-GPU Eq. 5
  /// times) before the first plan and after the last accepted one.
  double est_score_before = 0.0;
  double est_score_after = 0.0;
  /// Balance metric recomputed on the mutated target placement.
  double metric_after = 0.0;
  /// Realized state: the balance ratio the system MEASURED this step on the
  /// live placement (the estimate's ground truth, one step delayed by the
  /// best-effort executor).
  double realized_balance = 0.0;
  /// Chosen ops as "Expand(e=3,src=0,dst=5);Shrink(e=7,gpu=2)" (empty when
  /// no plan was adopted).
  std::string ops;
};

/// \brief Append-only record store with JSONL export.
class DecisionLog {
 public:
  void Add(PolicyDecisionRecord record) {
    records_.push_back(std::move(record));
  }
  const std::vector<PolicyDecisionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

  /// One JSON object per line, fields in declaration order, doubles at
  /// fixed precision — byte-deterministic for a deterministic run.
  std::string ToJsonl() const;

 private:
  std::vector<PolicyDecisionRecord> records_;
};

/// \brief Formats one record as a single JSON line (no trailing newline).
std::string FormatDecisionRecord(const PolicyDecisionRecord& record);

/// \brief Parses ToJsonl() output (blank lines skipped). Rejects, naming
/// the line and field, a required numeric field that is missing or does
/// not parse whole, and an integer field outside [0, its type's maximum]
/// (a flag's maximum is 1).
Result<std::vector<PolicyDecisionRecord>> ParseDecisionLog(
    const std::string& jsonl);

/// \brief Steps-to-adoption per workload switch point: for each switch step
/// s, the distance to the first record at step >= s that both triggered and
/// emitted ops (any layer), or -1 when no such record exists before the
/// next switch (or the end of the log). This is the policy-lag-behind-
/// tenant-switch metric in batches/steps.
std::vector<int64_t> PolicyAdoptionLags(
    const std::vector<PolicyDecisionRecord>& records,
    const std::vector<int64_t>& switch_steps);

}  // namespace obs
}  // namespace flexmoe

#endif  // FLEXMOE_OBS_DECISION_LOG_H_
