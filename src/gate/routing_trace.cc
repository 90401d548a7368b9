#include "gate/routing_trace.h"

#include <cstdio>

#include "util/file_io.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace flexmoe {

namespace {
constexpr uint64_t kTraceMagic = 0x464C58544D4F4531ULL;  // "FLXTMOE1"
}  // namespace

Status RoutingTrace::Append(std::vector<Assignment> step_assignments) {
  if (step_assignments.empty()) {
    return Status::InvalidArgument("empty step");
  }
  if (!steps_.empty()) {
    const auto& first = steps_.front();
    if (step_assignments.size() != first.size()) {
      return Status::InvalidArgument("layer count mismatch");
    }
    for (size_t l = 0; l < first.size(); ++l) {
      if (step_assignments[l].num_experts() != first[l].num_experts() ||
          step_assignments[l].num_gpus() != first[l].num_gpus()) {
        return Status::InvalidArgument("assignment shape mismatch");
      }
    }
  }
  steps_.push_back(std::move(step_assignments));
  return Status::OK();
}

int RoutingTrace::num_layers() const {
  return steps_.empty() ? 0 : static_cast<int>(steps_.front().size());
}

const Assignment& RoutingTrace::at(int step, int layer) const {
  FLEXMOE_CHECK(step >= 0 && step < num_steps());
  FLEXMOE_CHECK(layer >= 0 && layer < num_layers());
  return steps_[static_cast<size_t>(step)][static_cast<size_t>(layer)];
}

const std::vector<Assignment>& RoutingTrace::step(int s) const {
  FLEXMOE_CHECK(s >= 0 && s < num_steps());
  return steps_[static_cast<size_t>(s)];
}

std::vector<double> RoutingTrace::ExpertLoadCdf(int step, int layer) const {
  return SortedCdf(at(step, layer).ExpertLoads());
}

std::vector<std::vector<double>> RoutingTrace::ExpertShareSeries(
    int layer) const {
  std::vector<std::vector<double>> series;
  series.reserve(steps_.size());
  for (int s = 0; s < num_steps(); ++s) {
    const Assignment& a = at(s, layer);
    std::vector<double> loads = a.ExpertLoads();
    const double total = static_cast<double>(a.Total());
    for (double& v : loads) v = total > 0 ? v / total : 0.0;
    series.push_back(std::move(loads));
  }
  return series;
}

Status RoutingTrace::Save(const std::string& path) const {
  std::string bytes;
  auto write_u64 = [&](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u64(kTraceMagic);
  write_u64(static_cast<uint64_t>(num_steps()));
  write_u64(static_cast<uint64_t>(num_layers()));
  if (num_steps() > 0) {
    write_u64(static_cast<uint64_t>(steps_[0][0].num_experts()));
    write_u64(static_cast<uint64_t>(steps_[0][0].num_gpus()));
    for (const auto& step : steps_) {
      for (const Assignment& a : step) {
        for (int e = 0; e < a.num_experts(); ++e) {
          for (int g = 0; g < a.num_gpus(); ++g) {
            write_u64(static_cast<uint64_t>(a.at(e, g)));
          }
        }
      }
    }
  }
  return WriteFile(path, bytes);
}

Result<RoutingTrace> RoutingTrace::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  auto read_u64 = [&](uint64_t* v) {
    return std::fread(v, sizeof(*v), 1, f) == 1;
  };
  uint64_t magic = 0, steps = 0, layers = 0, experts = 0, gpus = 0;
  if (!read_u64(&magic) || magic != kTraceMagic) {
    std::fclose(f);
    return Status::InvalidArgument("bad trace magic");
  }
  if (!read_u64(&steps) || !read_u64(&layers)) {
    std::fclose(f);
    return Status::InvalidArgument("truncated trace header");
  }
  RoutingTrace trace;
  if (steps == 0) {
    // An empty trace is exactly the three header words — anything after
    // them is corruption, same as trailing bytes behind a payload.
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0 || std::ftell(f) != pos) {
      std::fclose(f);
      return Status::InvalidArgument("trailing bytes after empty trace");
    }
    std::fclose(f);
    return trace;
  }
  if (!read_u64(&experts) || !read_u64(&gpus) || experts == 0 || gpus == 0) {
    std::fclose(f);
    return Status::InvalidArgument("bad trace shape");
  }
  // A corrupted header must fail with a Status, not a multi-terabyte
  // allocation: sanity-cap each dimension, then require the file to hold
  // exactly the payload the header promises (also rejects trailing bytes).
  constexpr uint64_t kMaxDim = 1u << 20;
  if (steps > kMaxDim || layers == 0 || layers > kMaxDim ||
      experts > kMaxDim || gpus > kMaxDim) {
    std::fclose(f);
    return Status::InvalidArgument("implausible trace shape");
  }
  const uint64_t cells_per_step = layers * experts * gpus;
  if (cells_per_step > (1ull << 32) ||
      steps * cells_per_step > (1ull << 36)) {
    std::fclose(f);
    return Status::InvalidArgument("implausible trace size");
  }
  const long header_end = std::ftell(f);
  if (header_end < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::Internal("cannot stat trace file");
  }
  const long file_size = std::ftell(f);
  const uint64_t expected_size =
      static_cast<uint64_t>(header_end) + steps * cells_per_step * 8;
  if (file_size < 0 || static_cast<uint64_t>(file_size) != expected_size) {
    std::fclose(f);
    return Status::InvalidArgument(
        StrFormat("trace payload size mismatch: header promises %llu "
                  "bytes, file has %ld",
                  static_cast<unsigned long long>(expected_size), file_size));
  }
  if (std::fseek(f, header_end, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::Internal("cannot rewind trace file");
  }
  for (uint64_t s = 0; s < steps; ++s) {
    std::vector<Assignment> step;
    step.reserve(layers);
    for (uint64_t l = 0; l < layers; ++l) {
      Assignment a(static_cast<int>(experts), static_cast<int>(gpus));
      for (int e = 0; e < a.num_experts(); ++e) {
        for (int g = 0; g < a.num_gpus(); ++g) {
          uint64_t v = 0;
          if (!read_u64(&v)) {
            std::fclose(f);
            return Status::InvalidArgument("truncated trace body");
          }
          if (v > (1ull << 62)) {
            std::fclose(f);
            return Status::InvalidArgument("corrupt trace count");
          }
          a.set(e, g, static_cast<int64_t>(v));
        }
      }
      step.push_back(std::move(a));
    }
    FLEXMOE_RETURN_IF_ERROR(trace.Append(std::move(step)));
  }
  std::fclose(f);
  return trace;
}

}  // namespace flexmoe
