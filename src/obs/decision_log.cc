#include "obs/decision_log.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "util/string_util.h"

namespace flexmoe {
namespace obs {

std::string FormatDecisionRecord(const PolicyDecisionRecord& r) {
  return StrFormat(
      "{\"step\":%lld,\"layer\":%d,\"trigger_metric\":%.9g,"
      "\"threshold\":%.9g,\"forced\":%d,\"triggered\":%d,"
      "\"candidates_evaluated\":%lld,\"plan_rounds\":%d,\"migrations\":%d,"
      "\"evacuations\":%d,\"ops_emitted\":%d,\"est_score_before\":%.9g,"
      "\"est_score_after\":%.9g,\"metric_after\":%.9g,"
      "\"realized_balance\":%.9g,\"ops\":\"%s\"}",
      static_cast<long long>(r.step), r.layer, r.trigger_metric, r.threshold,
      r.forced ? 1 : 0, r.triggered ? 1 : 0,
      static_cast<long long>(r.candidates_evaluated), r.plan_rounds,
      r.migrations, r.evacuations, r.ops_emitted, r.est_score_before,
      r.est_score_after, r.metric_after, r.realized_balance, r.ops.c_str());
}

std::string DecisionLog::ToJsonl() const {
  std::string out;
  out.reserve(records_.size() * 192);
  for (const PolicyDecisionRecord& r : records_) {
    out.append(FormatDecisionRecord(r));
    out.push_back('\n');
  }
  return out;
}

namespace {

/// Extracts the text following "\"key\":" in `line`, up to the next ','
/// or '}'; false when the key is absent.
bool FindValue(const std::string& line, const char* key, std::string* out) {
  const std::string needle = StrFormat("\"%s\":", key);
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  const size_t end = line.find_first_of(",}", begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool FindString(const std::string& line, const char* key, std::string* out) {
  const std::string needle = StrFormat("\"%s\":\"", key);
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  const size_t close = line.find('"', begin);
  if (close == std::string::npos) return false;
  *out = line.substr(begin, close - begin);
  return true;
}

}  // namespace

Result<std::vector<PolicyDecisionRecord>> ParseDecisionLog(
    const std::string& jsonl) {
  std::vector<PolicyDecisionRecord> records;
  size_t line_no = 0;
  for (const std::string& line : Split(jsonl, '\n')) {
    ++line_no;
    if (line.empty()) continue;
    PolicyDecisionRecord r;
    std::string text;
    const auto bad = [&](const char* key) {
      return Status::InvalidArgument(
          StrFormat("decision log line %zu: missing or malformed field '%s'",
                    line_no, key));
    };
    const auto need = [&](const char* key, double* slot) {
      if (!FindValue(line, key, &text) || !ParseDouble(text, slot)) {
        return bad(key);
      }
      return Status::OK();
    };
    // Every integer field is an index, a count or a flag: a base-10
    // integer from 0 to its type's maximum (a flag's is 1).
    const auto need_int = [&](const char* key, auto* slot) {
      using T = std::remove_pointer_t<decltype(slot)>;
      int64_t v = 0;
      if (!FindValue(line, key, &text) || !ParseInt64(text, &v) || v < 0 ||
          static_cast<uint64_t>(v) >
              static_cast<uint64_t>(std::numeric_limits<T>::max())) {
        return bad(key);
      }
      *slot = static_cast<T>(v);
      return Status::OK();
    };
    FLEXMOE_RETURN_IF_ERROR(need_int("step", &r.step));
    FLEXMOE_RETURN_IF_ERROR(need_int("layer", &r.layer));
    FLEXMOE_RETURN_IF_ERROR(need("trigger_metric", &r.trigger_metric));
    FLEXMOE_RETURN_IF_ERROR(need("threshold", &r.threshold));
    FLEXMOE_RETURN_IF_ERROR(need_int("forced", &r.forced));
    FLEXMOE_RETURN_IF_ERROR(need_int("triggered", &r.triggered));
    FLEXMOE_RETURN_IF_ERROR(
        need_int("candidates_evaluated", &r.candidates_evaluated));
    FLEXMOE_RETURN_IF_ERROR(need_int("plan_rounds", &r.plan_rounds));
    FLEXMOE_RETURN_IF_ERROR(need_int("migrations", &r.migrations));
    FLEXMOE_RETURN_IF_ERROR(need_int("evacuations", &r.evacuations));
    FLEXMOE_RETURN_IF_ERROR(need_int("ops_emitted", &r.ops_emitted));
    FLEXMOE_RETURN_IF_ERROR(need("est_score_before", &r.est_score_before));
    FLEXMOE_RETURN_IF_ERROR(need("est_score_after", &r.est_score_after));
    FLEXMOE_RETURN_IF_ERROR(need("metric_after", &r.metric_after));
    FLEXMOE_RETURN_IF_ERROR(need("realized_balance", &r.realized_balance));
    FindString(line, "ops", &r.ops);  // optional; empty when no plan
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<int64_t> PolicyAdoptionLags(
    const std::vector<PolicyDecisionRecord>& records,
    const std::vector<int64_t>& switch_steps) {
  std::vector<int64_t> lags;
  lags.reserve(switch_steps.size());
  for (size_t i = 0; i < switch_steps.size(); ++i) {
    const int64_t s = switch_steps[i];
    const int64_t next = i + 1 < switch_steps.size()
                             ? switch_steps[i + 1]
                             : std::numeric_limits<int64_t>::max();
    int64_t adopted = -1;
    for (const PolicyDecisionRecord& r : records) {
      if (r.step < s || r.step >= next) continue;
      if (!r.triggered || r.ops_emitted <= 0) continue;
      adopted = adopted < 0 ? r.step : std::min(adopted, r.step);
    }
    lags.push_back(adopted < 0 ? -1 : adopted - s);
  }
  return lags;
}

}  // namespace obs
}  // namespace flexmoe
