#include "ops/thin.h"

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace craqr {
namespace ops {

namespace {

Status ValidateRates(double input_rate, double output_rate) {
  if (!(input_rate > 0.0) || !std::isfinite(input_rate)) {
    return Status::InvalidArgument("thin input rate must be > 0");
  }
  if (!(output_rate > 0.0) || !std::isfinite(output_rate)) {
    return Status::InvalidArgument("thin output rate must be > 0");
  }
  if (!(output_rate < input_rate)) {
    std::ostringstream msg;
    msg << "thin requires output rate < input rate, got " << output_rate
        << " >= " << input_rate
        << " (the T operator's rate is strictly less than the original MDPP)";
    return Status::InvalidArgument(msg.str());
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ThinOperator>> ThinOperator::Make(std::string name,
                                                         double input_rate,
                                                         double output_rate,
                                                         Rng rng) {
  CRAQR_RETURN_NOT_OK(ValidateRates(input_rate, output_rate));
  return std::unique_ptr<ThinOperator>(
      new ThinOperator(std::move(name), input_rate, output_rate, rng));
}

Status ThinOperator::PushBatch(TupleBatch& batch) {
  const std::size_t n = batch.size();
  CountIn(n);
  // Branch-free Bernoulli sweep: one batch mask fill (raw word vs the
  // shared precomputed threshold, no per-row branch) and one mask-compact
  // selection rewrite. One draw per active tuple in arrival order, so the
  // survivors do not depend on where batches are cut. The mask buffer is
  // recycled across batches.
  mask_.resize(n);
  rng_.FillBernoulliMask(retain_probability(), {mask_.data(), n});
  batch.RetainFromMask({mask_.data(), n});
  return Emit(batch);
}

Status ThinOperator::UpdateRates(double input_rate, double output_rate) {
  CRAQR_RETURN_NOT_OK(ValidateRates(input_rate, output_rate));
  input_rate_ = input_rate;
  output_rate_ = output_rate;
  return Status::OK();
}

}  // namespace ops
}  // namespace craqr
