#include "obs/observability.h"

#include "util/file_io.h"

namespace flexmoe {
namespace obs {

Status ObservabilityOptions::Validate() const {
  if (!enabled) {
    if (!trace_out.empty() || !metrics_out.empty() || !decisions_out.empty()) {
      return Status::InvalidArgument(
          "observability output paths set but observability.enabled is "
          "false");
    }
    return Status::OK();
  }
  if (trace_capacity <= 0) {
    return Status::InvalidArgument("observability.trace_capacity must be > 0");
  }
  return Status::OK();
}

Observability::Observability(const ObservabilityOptions& options)
    : options_(options),
      tracer_(options.trace_capacity > 0
                  ? static_cast<size_t>(options.trace_capacity)
                  : Tracer::kDefaultCapacity) {
  FLEXMOE_CHECK_OK(options.Validate());
}

Status Observability::ExportArtifacts() const {
  if (!options_.trace_out.empty()) {
    FLEXMOE_RETURN_IF_ERROR(WriteFile(options_.trace_out, TraceJson()));
  }
  if (!options_.metrics_out.empty()) {
    FLEXMOE_RETURN_IF_ERROR(WriteFile(options_.metrics_out, MetricsJson()));
  }
  if (!options_.decisions_out.empty()) {
    FLEXMOE_RETURN_IF_ERROR(
        WriteFile(options_.decisions_out, DecisionsJsonl()));
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace flexmoe
