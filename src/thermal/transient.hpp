// Transient thermal integration (implicit Euler).
//
// The epoch manager runs fine-grained transient windows (Fig. 4) during
// which the DTM observes per-core temperatures every few milliseconds.
// Implicit (backward) Euler is unconditionally stable, so one LU
// factorization of (C/dt + G) supports millisecond steps across the whole
// window regardless of the stiff sink/die time-constant spread.  The
// factorization comes from the process-wide operator memo
// (ThermalModel::transientOperator), so constructing a solver per
// lifetime run does not re-factor the fixed conductance matrix.
#pragma once

#include <memory>

#include "common/matrix.hpp"
#include "thermal/thermal_model.hpp"

namespace hayat {

/// Fixed-step implicit-Euler integrator over a ThermalModel.
///
/// The system  C dT/dt = P + b - G T  is discretized as
///     (C/dt + G) T_{n+1} = (C/dt) T_n + P + b
/// and the factored (C/dt + G) is fetched once at construction.
class TransientSolver {
 public:
  /// Prepares the integrator for a fixed step size [s].
  TransientSolver(const ThermalModel& model, Seconds dt);

  Seconds dt() const { return dt_; }
  const ThermalModel& model() const { return *model_; }

  /// Advances node temperatures by one step under the given per-core
  /// power vector (held constant across the step).
  Vector step(const Vector& nodeTemperatures, const Vector& corePower) const;

  /// Allocation-free step: advances `nodeTemperatures` in place, using
  /// `scratch` (resized to nodeCount() once, then reused) for the
  /// right-hand side.  With warm buffers this performs zero heap
  /// allocations — the epoch hot-loop contract of DESIGN.md §3.8.
  void stepInPlace(Vector& nodeTemperatures, const Vector& corePower,
                   Vector& scratch) const;

  /// Advances by `steps` steps with constant power (convenience).
  Vector run(Vector nodeTemperatures, const Vector& corePower,
             int steps) const;

  /// A good initial condition: the steady state of the given power.
  Vector initialState(const Vector& corePower) const;

 private:
  const ThermalModel* model_;
  Seconds dt_;
  std::shared_ptr<const ThermalModel::TransientOperator> op_;
};

}  // namespace hayat
