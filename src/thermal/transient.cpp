#include "thermal/transient.hpp"

#include "common/error.hpp"

namespace hayat {

TransientSolver::TransientSolver(const ThermalModel& model, Seconds dt)
    : model_(&model), dt_(dt), op_(model.transientOperator(dt)) {}

Vector TransientSolver::step(const Vector& nodeTemperatures,
                             const Vector& corePower) const {
  Vector next = nodeTemperatures;
  Vector scratch;
  stepInPlace(next, corePower, scratch);
  return next;
}

void TransientSolver::buildRightHandSide(Vector& nodeTemperatures,
                                         const Vector& corePower) const {
  const int cores = model_->coreCount();
  const std::size_t n = static_cast<std::size_t>(model_->nodeCount());
  HAYAT_REQUIRE(nodeTemperatures.size() == n,
                "node temperature vector size mismatch");
  HAYAT_REQUIRE(static_cast<int>(corePower.size()) == cores,
                "power vector size must equal core count");
  // (C/dt) T_n + P + b, element by element in place, inlining
  // expandPower so no per-node power vector is allocated.
  const Vector& b = model_->ambientLoad();
  const Vector& capOverDt = op_->capOverDt;
  for (std::size_t i = 0; i < n; ++i) {
    double p = 0.0;
    if (static_cast<int>(i) < cores) {
      p = corePower[i];
      HAYAT_REQUIRE(p >= 0.0, "negative core power");
    }
    nodeTemperatures[i] = p + b[i] + capOverDt[i] * nodeTemperatures[i];
  }
}

void TransientSolver::stepInPlace(Vector& nodeTemperatures,
                                  const Vector& corePower,
                                  Vector& scratch) const {
  buildRightHandSide(nodeTemperatures, corePower);
  op_->solver.solveInPlace(nodeTemperatures, scratch);
}

template <int L>
void TransientSolver::stepBlock(Vector* const* nodeTemperatures,
                                const Vector* const* corePower,
                                Vector& scratch) const {
  double* lanes[static_cast<std::size_t>(L)];
  for (int l = 0; l < L; ++l) {
    buildRightHandSide(*nodeTemperatures[l], *corePower[l]);
    lanes[l] = nodeTemperatures[l]->data();
  }
  op_->solver.banded()->solvePermutedLanes<L>(lanes, scratch.data(),
                                              op_->solver.permutation());
}

void TransientSolver::stepLanes(std::span<Vector* const> nodeTemperatures,
                                std::span<const Vector* const> corePower,
                                Vector& scratch) const {
  HAYAT_REQUIRE(nodeTemperatures.size() == corePower.size(),
                "one power vector per lane");
  const std::size_t count = nodeTemperatures.size();
  std::size_t k = 0;
  if (op_->solver.banded() != nullptr && count > 1) {
    scratch.resize(static_cast<std::size_t>(model_->nodeCount()) *
                   (count >= 4 ? 4 : 2));
    for (; k + 4 <= count; k += 4)
      stepBlock<4>(&nodeTemperatures[k], &corePower[k], scratch);
    for (; k + 2 <= count; k += 2)
      stepBlock<2>(&nodeTemperatures[k], &corePower[k], scratch);
  }
  for (; k < count; ++k)
    stepInPlace(*nodeTemperatures[k], *corePower[k], scratch);
}

Vector TransientSolver::run(Vector nodeTemperatures, const Vector& corePower,
                            int steps) const {
  HAYAT_REQUIRE(steps >= 0, "negative step count");
  Vector scratch;
  for (int s = 0; s < steps; ++s)
    stepInPlace(nodeTemperatures, corePower, scratch);
  return nodeTemperatures;
}

Vector TransientSolver::initialState(const Vector& corePower) const {
  return model_->steadyState(corePower);
}

}  // namespace hayat
