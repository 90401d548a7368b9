#include "placement/executor.h"

#include <algorithm>

#include "util/logging.h"

namespace flexmoe {

namespace {

/// Background copies contend with training traffic; they run at
/// 1/slowdown of the profiled link bandwidth.
constexpr double kBackgroundSlowdown = 1.25;
/// Batches launched per step boundary. Transfers serialize on the
/// background streams regardless, so several batches in flight mainly
/// improve pipelining of same-source copies.
constexpr int kMaxBatchesPerBoundary = 16;
/// Boundaries an op that failed to apply (its prerequisite still in
/// flight) is retried before being dropped.
constexpr int kApplyRetryBoundaries = 3;

}  // namespace

PlacementExecutor::PlacementExecutor(const ExecutorOptions& options,
                                     const HardwareProfile* profile,
                                     double expert_state_bytes)
    : options_(options),
      profile_(profile),
      expert_state_bytes_(expert_state_bytes),
      queue_(expert_state_bytes) {
  FLEXMOE_CHECK(profile != nullptr);
}

void PlacementExecutor::Enqueue(const std::vector<ModOp>& ops) {
  queue_.Enqueue(ops);
}

void PlacementExecutor::ClearPending() { queue_.Clear(); }

int PlacementExecutor::DropOpsInvolving(GpuId gpu) {
  const size_t before = in_flight_.size();
  in_flight_.erase(
      std::remove_if(in_flight_.begin(), in_flight_.end(),
                     [gpu](const InFlight& f) {
                       return f.op.src == gpu || f.op.dst == gpu;
                     }),
      in_flight_.end());
  return static_cast<int>(before - in_flight_.size());
}

bool PlacementExecutor::ApplyToLive(const ModOp& op, Placement* live,
                                    const ClusterHealth* health) {
  ModOp fixed = op;
  if (op.type == ModOpType::kExpand && op.src >= 0 &&
      live->VExpertsOn(op.expert, op.src) == 0) {
    // The copy source shrank away while the transfer was queued; any other
    // *live* replica holds identical states (a dead device's copy is
    // lost). Prefer a host co-located with dst.
    std::vector<GpuId> hosts = live->HostGpus(op.expert);
    if (health != nullptr) {
      hosts.erase(std::remove_if(hosts.begin(), hosts.end(),
                                 [health](GpuId h) {
                                   return !health->alive(h);
                                 }),
                  hosts.end());
    }
    if (hosts.empty()) return false;
    fixed.src = hosts.front();
    for (GpuId h : hosts) {
      if (profile_->topology().SameNode(h, op.dst)) {
        fixed.src = h;
        break;
      }
    }
  }
  const Status s = ApplyOp(fixed, live);
  if (!s.ok()) {
    FLEXMOE_LOG_DEBUG << "dropping stale op " << op.ToString() << ": "
                      << s.ToString();
    return false;
  }
  return true;
}

PlacementExecutor::TickResult PlacementExecutor::OnStepBoundary(
    double now, ClusterState* cluster, Placement* live,
    const ClusterHealth* health) {
  TickResult result;

  // 1. Completed background transfers take effect, in finish-time order.
  //    An op whose prerequisite is still in flight (apply fails) is
  //    retried for a few boundaries before being dropped.
  std::sort(in_flight_.begin(), in_flight_.end(),
            [](const InFlight& a, const InFlight& b) {
              return a.finish_time < b.finish_time;
            });
  std::vector<InFlight> still_pending;
  for (InFlight& flight : in_flight_) {
    if (flight.finish_time > now) {
      still_pending.push_back(flight);
      continue;
    }
    if (ApplyToLive(flight.op, live, health)) {
      ++result.ops_applied;
    } else if (flight.retries_left > 0) {
      --flight.retries_left;
      still_pending.push_back(flight);
    } else {
      ++result.ops_dropped;
    }
  }
  in_flight_ = std::move(still_pending);

  if (options_.blocking) {
    // Static baseline: drain the whole queue synchronously; the training
    // step waits for the transfers.
    while (!queue_.empty()) {
      OpBatch batch = queue_.PopBatch();
      double batch_seconds = 0.0;
      for (const TransferGroup& tg : batch.transfers) {
        batch_seconds = std::max(
            batch_seconds, profile_->P2pSeconds(tg.bytes, tg.src, tg.dst));
      }
      result.blocking_seconds += batch_seconds;
      for (const ModOp& op : batch.free_ops) {
        if (ApplyToLive(op, live, health)) ++result.ops_applied;
        else ++result.ops_dropped;
      }
      for (const TransferGroup& tg : batch.transfers) {
        for (const ModOp& op : tg.ops) {
          if (ApplyToLive(op, live, health)) ++result.ops_applied;
          else ++result.ops_dropped;
        }
      }
    }
    return result;
  }

  // 2. Best-effort launch: up to kMaxBatchesPerBoundary batches start
  //    now even while earlier transfers are still in flight — the
  //    background streams serialize same-endpoint transfers in launch
  //    order, and cross-batch apply races are absorbed by the retry
  //    mechanism above.
  for (int b = 0; b < kMaxBatchesPerBoundary && !queue_.empty(); ++b) {
    OpBatch batch = queue_.PopBatch();
    // Free ops (shrinks, packing expands) take effect right away.
    for (const ModOp& op : batch.free_ops) {
      if (ApplyToLive(op, live, health)) ++result.ops_applied;
      else ++result.ops_dropped;
    }
    for (const TransferGroup& tg : batch.transfers) {
      const CollectiveResult copy = ExecBackgroundCopy(
          cluster, *profile_, tg.bytes, tg.src, tg.dst, now,
          kBackgroundSlowdown);
      for (const ModOp& op : tg.ops) {
        in_flight_.push_back({op, copy.finish, kApplyRetryBoundaries});
        ++result.ops_launched;
      }
    }
  }
  return result;
}

}  // namespace flexmoe
