#include "thermal/transient.hpp"

#include <utility>

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

void TransientSolver::stepInPlace(Vector& nodeTemperatures,
                                  const Vector& corePower,
                                  Vector& scratch) const {
  const int cores = model_->coreCount();
  const std::size_t n = static_cast<std::size_t>(model_->nodeCount());
  HAYAT_REQUIRE(nodeTemperatures.size() == n,
                "node temperature vector size mismatch");
  HAYAT_REQUIRE(static_cast<int>(corePower.size()) == cores,
                "power vector size must equal core count");
  // Build the right-hand side (C/dt) T_n + P + b into `scratch`,
  // inlining expandPower so no per-node power vector is allocated.
  scratch.resize(n);
  const Vector& b = model_->ambientLoad();
  const Vector& capOverDt = op_->capOverDt;
  for (std::size_t i = 0; i < n; ++i) {
    double p = 0.0;
    if (static_cast<int>(i) < cores) {
      p = corePower[i];
      HAYAT_REQUIRE(p >= 0.0, "negative core power");
    }
    scratch[i] = p + b[i] + capOverDt[i] * nodeTemperatures[i];
  }
  // Solve into `scratch`, then swap: nodeTemperatures becomes T_{n+1}
  // and the old buffer becomes next step's scratch space.
  op_->solver.solveInPlace(scratch, nodeTemperatures);
  std::swap(nodeTemperatures, scratch);
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
