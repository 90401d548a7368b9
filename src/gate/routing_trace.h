// Recorded routing traces: per-step, per-layer assignments plus the
// statistics views used by Figure 3 (load CDFs and load-evolution series).
// Traces can be saved/loaded in a compact binary format for replay, so that
// all systems in a comparison consume the identical token stream.

#ifndef FLEXMOE_GATE_ROUTING_TRACE_H_
#define FLEXMOE_GATE_ROUTING_TRACE_H_

#include <string>
#include <vector>

#include "moe/moe_layer.h"
#include "util/status.h"

namespace flexmoe {

/// \brief An in-memory recorded routing trace.
class RoutingTrace {
 public:
  RoutingTrace() = default;

  /// Appends one step's per-layer assignments. All steps must have the same
  /// layer count and shapes.
  Status Append(std::vector<Assignment> step_assignments);

  int num_steps() const { return static_cast<int>(steps_.size()); }
  int num_layers() const;

  const Assignment& at(int step, int layer) const;
  const std::vector<Assignment>& step(int s) const;

  /// Figure 3(a): cumulative share of the k heaviest experts at one step.
  std::vector<double> ExpertLoadCdf(int step, int layer) const;

  /// Figure 3(b): per-step normalized expert shares, [step][expert].
  std::vector<std::vector<double>> ExpertShareSeries(int layer) const;

  /// Serialization: 64-bit words in the native byte order, magic-checked.
  /// A file written on a machine with the other byte order fails Load's
  /// magic check.
  Status Save(const std::string& path) const;
  static Result<RoutingTrace> Load(const std::string& path);

 private:
  std::vector<std::vector<Assignment>> steps_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_ROUTING_TRACE_H_
