#include "ops/operator.h"

#include <array>
#include <string>

#include "common/macros.h"
#include "obs/metrics.h"
#include "ops/partition.h"

namespace craqr {
namespace ops {

namespace {

/// Per-kind dispatch metrics, resolved once (thread-safe magic static)
/// and cached as stable registry pointers.
struct KindMetrics {
  obs::Counter* evaluations = nullptr;
  obs::Counter* tuples_in = nullptr;
  obs::LogHistogram* batch_size = nullptr;
};

const std::array<KindMetrics, kNumOperatorKinds>& DispatchMetrics() {
  static const std::array<KindMetrics, kNumOperatorKinds> metrics = [] {
    std::array<KindMetrics, kNumOperatorKinds> m{};
    for (std::size_t k = 0; k < kNumOperatorKinds; ++k) {
      const std::string base =
          std::string("craqr.ops.") +
          OperatorKindLabel(static_cast<OperatorKind>(k));
      m[k].evaluations = obs::GetCounter(base + ".evaluations");
      m[k].tuples_in = obs::GetCounter(base + ".tuples_in");
      m[k].batch_size = obs::GetHistogram(base + ".batch_size");
    }
    return m;
  }();
  return metrics;
}

}  // namespace

void Operator::RecordDispatch(std::size_t n) {
  if (!obs::IsEnabled()) {
    return;
  }
  const KindMetrics& m =
      DispatchMetrics()[static_cast<std::size_t>(kind())];
  m.evaluations->Increment();
  m.tuples_in->Add(n);
  m.batch_size->Record(n);
}

const char* OperatorKindLabel(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kFlatten:
      return "F";
    case OperatorKind::kThin:
      return "T";
    case OperatorKind::kPartition:
      return "P";
    case OperatorKind::kUnion:
      return "U";
    case OperatorKind::kSuperpose:
      return "S";
    case OperatorKind::kFilter:
      return "Sel";
    case OperatorKind::kMap:
      return "Map";
    case OperatorKind::kRateMonitor:
      return "Mon";
    case OperatorKind::kSink:
      return "Sink";
    case OperatorKind::kPassThrough:
      return "Id";
    case OperatorKind::kReorder:
      return "Ord";
  }
  return "?";
}

bool BuffersBetweenPushes(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kFlatten:
    case OperatorKind::kReorder:
      return true;
    case OperatorKind::kThin:
    case OperatorKind::kPartition:
    case OperatorKind::kUnion:
    case OperatorKind::kSuperpose:
    case OperatorKind::kFilter:
    case OperatorKind::kMap:
    case OperatorKind::kRateMonitor:
    case OperatorKind::kSink:
    case OperatorKind::kPassThrough:
      return false;
  }
  return false;
}

std::size_t Operator::AddOutput(Operator* output) {
  outputs_.push_back(output);
  return outputs_.size() - 1;
}

bool Operator::RemoveOutput(Operator* output) {
  for (auto it = outputs_.begin(); it != outputs_.end(); ++it) {
    if (*it == output) {
      outputs_.erase(it);
      return true;
    }
  }
  return false;
}

Status Operator::Emit(const Tuple& tuple) {
  ++stats_.tuples_out;
  for (Operator* out : outputs_) {
    CRAQR_RETURN_NOT_OK(out->Push(tuple));
  }
  return Status::OK();
}

Status Operator::EmitTo(std::size_t port, const Tuple& tuple) {
  if (port >= outputs_.size()) {
    return Status::OutOfRange("no operator connected to output port " +
                              std::to_string(port) + " of " + name_);
  }
  ++stats_.tuples_out;
  return outputs_[port]->Push(tuple);
}

Status Operator::PushBatch(TupleBatch& batch) {
  // Fallback for operators that have not opted into batch execution: the
  // per-tuple path, tuple by tuple in arrival order.
  Status status = Status::OK();
  batch.ForEach([this, &status](const Tuple& tuple) {
    if (status.ok()) {
      status = Push(tuple);
    }
  });
  return status;
}

Status Operator::Emit(TupleBatch& batch) {
  stats_.tuples_out += batch.size();
  if (batch.empty() || outputs_.empty()) {
    return Status::OK();
  }
  // Port order matches the per-tuple Emit; all but the last output
  // receive a materialized copy, the last consumes the batch in place.
  if (outputs_.size() > 1 && broadcast_scratch_ == nullptr) {
    broadcast_scratch_ = std::make_unique<TupleBatch>();
  }
  for (std::size_t i = 0; i + 1 < outputs_.size(); ++i) {
    broadcast_scratch_->CopyFrom(batch);
    CRAQR_RETURN_NOT_OK(outputs_[i]->PushBatch(*broadcast_scratch_));
    broadcast_scratch_->Clear();
  }
  return outputs_.back()->PushBatch(batch);
}

Status Operator::EmitTo(std::size_t port, TupleBatch& batch) {
  if (port >= outputs_.size()) {
    return Status::OutOfRange("no operator connected to output port " +
                              std::to_string(port) + " of " + name_);
  }
  stats_.tuples_out += batch.size();
  return outputs_[port]->PushBatch(batch);
}

Status ValidateStatsConservation(const Operator& op) {
  const OperatorStats& s = op.stats();
  const auto fail = [&op](const std::string& what) {
    return Status::Internal("operator stats conservation violated: " +
                            op.name() + " " + what);
  };
  switch (op.kind()) {
    case OperatorKind::kUnion:
    case OperatorKind::kSuperpose:
    case OperatorKind::kMap:
    case OperatorKind::kRateMonitor:
    case OperatorKind::kPassThrough:
      if (s.tuples_out != s.tuples_in) {
        return fail("forwards all tuples but out=" +
                    std::to_string(s.tuples_out) + " != in=" +
                    std::to_string(s.tuples_in));
      }
      break;
    case OperatorKind::kPartition: {
      const auto& partition = static_cast<const PartitionOperator&>(op);
      if (s.tuples_out + partition.unrouted() != s.tuples_in) {
        return fail("out=" + std::to_string(s.tuples_out) + " + unrouted=" +
                    std::to_string(partition.unrouted()) + " != in=" +
                    std::to_string(s.tuples_in));
      }
      break;
    }
    case OperatorKind::kSink:
      if (s.tuples_out != 0) {
        return fail("sink emitted " + std::to_string(s.tuples_out) +
                    " tuples");
      }
      break;
    case OperatorKind::kFlatten:  // may buffer and discard
    case OperatorKind::kThin:
    case OperatorKind::kFilter:
    case OperatorKind::kReorder:  // buffers between push and flush
      if (s.tuples_out > s.tuples_in) {
        return fail("emitted more than received: out=" +
                    std::to_string(s.tuples_out) + " > in=" +
                    std::to_string(s.tuples_in));
      }
      break;
  }
  return Status::OK();
}

}  // namespace ops
}  // namespace craqr
