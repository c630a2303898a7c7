#include "ops/pipeline.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/macros.h"

namespace craqr {
namespace ops {

bool Pipeline::Remove(Operator* op) {
  for (auto it = operators_.begin(); it != operators_.end(); ++it) {
    if (it->get() == op) {
      const auto buffering =
          std::find(buffering_.begin(), buffering_.end(), op);
      if (buffering != buffering_.end()) {
        buffering_.erase(buffering);
      }
      operators_.erase(it);
      return true;
    }
  }
  return false;
}

Status Pipeline::FlushAll() {
  for (Operator* op : buffering_) {
    CRAQR_RETURN_NOT_OK(op->Flush());
  }
  return Status::OK();
}

std::uint64_t Pipeline::TotalOperatorEvaluations() const {
  std::uint64_t total = 0;
  for (const auto& op : operators_) {
    total += op->stats().tuples_in;
  }
  return total;
}

std::string Pipeline::ToDot() const {
  std::ostringstream os;
  os << "digraph topology {\n";
  std::unordered_set<const Operator*> owned;
  for (const auto& op : operators_) {
    owned.insert(op.get());
  }
  for (const auto& op : operators_) {
    os << "  \"" << op->name() << "\" [label=\""
       << OperatorKindLabel(op->kind()) << ": " << op->name() << "\"];\n";
    for (const Operator* out : op->outputs()) {
      os << "  \"" << op->name() << "\" -> \"" << out->name() << "\";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace ops
}  // namespace craqr
