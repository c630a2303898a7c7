#pragma once

#include <memory>

#include "common/result.h"
#include "common/rng.h"
#include "ops/operator.h"
#include "ops/state_serde.h"

/// \file thin.h
/// \brief The T (Thin) PMAT operator (paper Section IV-B-1).
///
/// Converts a homogeneous MDPP P(lambda1, R*) into P(lambda2, R*) with
/// lambda2 < lambda1 by independent Bernoulli(lambda2/lambda1) retention —
/// "a biased coin toss with bias p".  Independent thinning of a Poisson
/// process with probability p yields a Poisson process of rate p*lambda, so
/// the output has exactly the desired rate in expectation.

namespace craqr {
namespace ops {

/// \brief Bernoulli rate-reduction operator.
class ThinOperator final : public Operator {
 public:
  /// Creates a thin from `input_rate` down to `output_rate`.
  /// Requires 0 < output_rate < input_rate (the paper's "strictly less"
  /// precondition) and a non-null rng.
  static Result<std::unique_ptr<ThinOperator>> Make(std::string name,
                                                    double input_rate,
                                                    double output_rate,
                                                    Rng rng);

  /// One branch-free Bernoulli mask fill (Rng::FillBernoulliMask) plus
  /// one mask-compact selection rewrite (TupleBatch::RetainFromMask) — no
  /// tuple is moved, no per-row branch is taken — then a single
  /// downstream emit. One draw per active tuple, in arrival order, each
  /// compared against Rng::BernoulliThreshold.
  Status PushBatch(TupleBatch& batch) override;

  OperatorKind kind() const override { return OperatorKind::kThin; }

  /// The assumed input rate lambda1.
  double input_rate() const { return input_rate_; }

  /// The target output rate lambda2.
  double output_rate() const { return output_rate_; }

  /// Retention probability lambda2 / lambda1.
  double retain_probability() const { return output_rate_ / input_rate_; }

  /// \brief Re-points the operator at new rates; used by the fabricator
  /// when T-chains are re-sorted or merged (paper Section V, rules 1-2).
  /// Same preconditions as Make.
  Status UpdateRates(double input_rate, double output_rate);

  /// \name Checkpoint support
  /// The operator's mutable state is the RNG phase plus the base
  /// throughput counters; the rates and name are construction inputs
  /// re-supplied by the checkpoint's topology record.
  ///@{
  void SaveState(StateWriter& w) const {
    WriteOperatorCounters(w, *this);
    WriteRngState(w, rng_);
  }
  Status RestoreState(StateReader& r) {
    CRAQR_RETURN_NOT_OK(ReadOperatorCounters(r, this));
    return ReadRngState(r, &rng_);
  }
  ///@}

 private:
  ThinOperator(std::string name, double input_rate, double output_rate,
               Rng rng)
      : Operator(std::move(name)),
        input_rate_(input_rate),
        output_rate_(output_rate),
        rng_(rng) {}

  double input_rate_;
  double output_rate_;
  Rng rng_;
  /// Recycled Bernoulli-mask buffer for the batch sweep.
  std::vector<std::uint8_t> mask_;
};

}  // namespace ops
}  // namespace craqr
