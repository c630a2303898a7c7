#include "ops/reorder.h"

#include <utility>

namespace craqr {
namespace ops {

Result<std::unique_ptr<ReorderOperator>> ReorderOperator::Make(
    std::string name) {
  return std::unique_ptr<ReorderOperator>(new ReorderOperator(std::move(name)));
}

Status ReorderOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  buffer_.AppendActiveFrom(batch);
  return Status::OK();
}

Status ReorderOperator::Flush() {
  if (buffer_.empty()) {
    return Status::OK();
  }
  buffer_.SortByTimeThenId();
  const Status status = Emit(buffer_);
  // Drained even on error so no tuple leaks into the next step.
  buffer_.Clear();
  return status;
}

}  // namespace ops
}  // namespace craqr
