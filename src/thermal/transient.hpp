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
#include <span>

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

  /// Allocation-free step: advances `nodeTemperatures` in place (the
  /// right-hand side is built in place, then solved), using `scratch`
  /// (resized to nodeCount() once, then reused) as the solver's permuted
  /// domain.  With warm buffers this performs zero heap allocations —
  /// the epoch hot-loop contract of DESIGN.md §3.8.
  void stepInPlace(Vector& nodeTemperatures, const Vector& corePower,
                   Vector& scratch) const;

  /// One step of several independent lanes: lane k advances
  /// `*nodeTemperatures[k]` under `*corePower[k]`.  On the banded
  /// backend, lanes go through BandedFactorization::solvePermutedLanes
  /// four, then two at a time, and a lone remaining lane through
  /// stepInPlace; every lane's result is bitwise its stepInPlace result.
  /// `scratch` grows once to nodeCount() * 4 doubles at most; after that
  /// the step allocates nothing.
  void stepLanes(std::span<Vector* const> nodeTemperatures,
                 std::span<const Vector* const> corePower,
                 Vector& scratch) const;

  /// The shared factored operator this solver steps with; lanes may be
  /// stepped together only when they hold the same one.
  const ThermalModel::TransientOperator& transientOperator() const {
    return *op_;
  }

  /// Advances by `steps` steps with constant power (convenience).
  Vector run(Vector nodeTemperatures, const Vector& corePower,
             int steps) const;

  /// A good initial condition: the steady state of the given power.
  Vector initialState(const Vector& corePower) const;

 private:
  /// Overwrites `nodeTemperatures` with the implicit-Euler right-hand
  /// side (C/dt) T_n + P + b.
  void buildRightHandSide(Vector& nodeTemperatures,
                          const Vector& corePower) const;

  template <int L>
  void stepBlock(Vector* const* nodeTemperatures,
                 const Vector* const* corePower, Vector& scratch) const;

  const ThermalModel* model_;
  Seconds dt_;
  std::shared_ptr<const ThermalModel::TransientOperator> op_;
};

}  // namespace hayat
