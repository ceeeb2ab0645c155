// Compact RC thermal model of the chip package (HotSpot-style block model).
//
// The paper's evaluation couples its simulator with HotSpot [20] "as a
// library"; this module is the equivalent substrate.  The package is
// modeled as three stacked layers of per-tile nodes
//
//     die (silicon) --TIM--> heat spreader (copper) --> heat sink (Al)
//
// with lateral conduction inside each layer, vertical conduction between
// layers, and a convective boundary from the sink layer to ambient.  This
// is exactly the modeling approach of HotSpot's block mode: a thermal
// RC network whose conductance matrix G and capacitance vector C give
//
//     steady state:  G * T = P + b_ambient
//     transient:     C * dT/dt = P + b_ambient - G * T
//
// The network is structurally sparse (≤7 nonzeros per row), so all
// solves go through the banded kernels of common/sparse.hpp under a
// reverse Cuthill–McKee ordering; ThermalConfig::solver = Dense selects
// the dense reference LU of the same permuted matrix, which produces
// bitwise-identical results (see DESIGN.md §3.8).  Package parameters
// default to HotSpot-like values calibrated so that the paper's
// workloads produce the 325-345 K steady-state band of Fig. 2 (see
// DESIGN.md §1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "common/units.hpp"

namespace hayat {

/// Package geometry and material parameters of the RC network.
struct ThermalConfig {
  FloorPlan floorplan;          ///< die tiling (one power source per core)
  Kelvin ambient = 318.15;      ///< 45 C ambient (HotSpot default)

  // Die (silicon).
  Meters dieThickness = 0.20e-3;
  double dieConductivity = 100.0;        ///< W/(m K)
  double dieVolumetricHeat = 1.75e6;     ///< J/(m^3 K)

  // Thermal interface material between die and spreader.
  Meters timThickness = 30e-6;
  double timConductivity = 8.0;

  // Copper heat spreader.
  Meters spreaderThickness = 1.0e-3;
  double spreaderConductivity = 400.0;
  double spreaderVolumetricHeat = 3.45e6;

  // Aluminium heat sink base.
  Meters sinkThickness = 6.0e-3;
  double sinkConductivity = 240.0;
  double sinkVolumetricHeat = 2.42e6;

  /// Vertical interface resistance between spreader and sink, per tile
  /// [K/W] (lumps the sink mounting interface).
  double spreaderSinkResistancePerTile = 0.5;

  /// Whole-package convective resistance sink -> ambient [K/W].
  double convectionResistance = 0.04;

  /// Backend of this package's factorizations: the banded kernel or the
  /// dense reference LU.  Outside the spec: the spec walk skips it, so
  /// it is never hashed, sent to a worker or cached, and workers run the
  /// default.  Sound only because the A/B tests pin both backends to
  /// identical bytes.
  RcSolver::Mode solver = RcSolver::Mode::Banded;
};

/// The assembled RC network with cached factorizations.
///
/// Node layout: [0, N) die tiles, [N, 2N) spreader tiles, [2N, 3N) sink
/// tiles, where N is the core count.  Power is injected at die nodes only.
class ThermalModel {
 public:
  explicit ThermalModel(ThermalConfig config);

  int coreCount() const { return cores_; }
  int nodeCount() const { return 3 * cores_; }
  const ThermalConfig& config() const { return config_; }

  /// Solves the steady-state temperatures for a per-core power vector
  /// (size == coreCount()).  Returns all node temperatures.
  Vector steadyState(const Vector& corePower) const;

  /// Extracts the die (core) temperatures from a node-temperature vector.
  Vector coreTemperatures(const Vector& nodeTemperatures) const;

  /// Allocation-free variant: writes the die temperatures into `out`
  /// (resized to coreCount()).
  void coreTemperaturesInto(const Vector& nodeTemperatures,
                            Vector& out) const;

  /// Convenience: steady-state core temperatures directly.
  Vector steadyStateCoreTemperatures(const Vector& corePower) const;

  /// The steady-state thermal influence matrix K with
  /// K(i, j) = dT_core_i / dP_core_j [K/W].  Because the RC network is
  /// linear, T_core = ambient + K * P exactly; this is the kernel the
  /// online thermal-profile predictor superposes (Section IV-B step 2).
  const Matrix& coreInfluenceMatrix() const;

  /// Column-major view of the influence kernel plus per-column
  /// aggregates — the hot-loop data of the online predictor
  /// (DESIGN.md §3.11).  Row c of `transposed` is column c of K stored
  /// contiguously; `columnSums[c]` is its sum (the closed-form tSum
  /// term); `columnMaxOff[c]` is the largest influence of a watt at core
  /// c on any *other* core (the O(1) admission bound of
  /// ThermalPredictor::evaluateCandidate; 0 for a single-core die).
  struct InfluenceProfile {
    Matrix transposed;
    Vector columnSums;
    Vector columnMaxOff;
  };

  /// Built with the influence matrix (the predictor is constructed per
  /// placement round; rebuilding the transpose there would put an O(n²)
  /// copy on the policy's critical path).
  const InfluenceProfile& coreInfluenceProfile() const;

  /// Everything steady-state about one package: the factored conductance
  /// matrix, the influence matrix and its profile.  Kernels live in a
  /// process-wide memo keyed by configSignature() and the solver
  /// backend, so every model of one package (every task of a sweep)
  /// shares one factorization and one n² influence kernel.
  struct SteadyKernel {
    RcSolver solver;
    Matrix influence;
    InfluenceProfile profile;
  };

  /// The assembled conductance matrix in CSR form — what the solvers
  /// actually factor.
  const SparseMatrix& conductanceSparse() const { return sparse_; }

  /// Bandwidth-reducing node ordering shared by every solver of this
  /// model (perm[newIndex] = oldIndex).
  const std::vector<int>& nodeOrdering() const { return perm_; }

  /// Per-node heat capacities [J/K].
  const Vector& capacitance() const { return cap_; }

  /// Ambient contribution vector b with steady state G T = P_nodes + b.
  const Vector& ambientLoad() const { return ambientLoad_; }

  /// Expands a per-core power vector to a per-node vector (die layer).
  Vector expandPower(const Vector& corePower) const;

  /// The factored implicit-Euler operator (C/dt + G) for a fixed step.
  /// The conductance matrix is constant for the lifetime of the model, so
  /// the factorization only depends on dt (and on the solver backend,
  /// which is part of the memo key).
  struct TransientOperator {
    Seconds dt = 0.0;
    Vector capOverDt;  ///< per-node C/dt [W/K]
    RcSolver solver;

    TransientOperator(Seconds step, Vector capacityOverDt,
                      const SparseMatrix& a, std::vector<int> perm,
                      RcSolver::Mode mode)
        : dt(step),
          capOverDt(std::move(capacityOverDt)),
          solver(a, std::move(perm), mode) {}
  };

  /// Returns the (C/dt + G) factorization for `dt`, building it on first
  /// use.  Operators live in a process-wide memo keyed by
  /// configSignature(), dt and the solver backend, so distinct models
  /// with identical thermal geometry (every task of a sweep) share one
  /// factorization.  Thread-safe.
  std::shared_ptr<const TransientOperator> transientOperator(Seconds dt) const;

  /// Canonical encoding of every ThermalConfig field that influences the
  /// RC network — equal signatures mean interchangeable operators.
  const std::string& configSignature() const { return signature_; }

  /// Empties the process-wide transient-operator memo (tests only;
  /// operators still held by solvers stay valid).
  static void clearSharedTransientCacheForTest();

 private:
  void build();
  /// configSignature() plus the solver backend: the memo key prefix.
  std::string backendKey() const;

  ThermalConfig config_;
  int cores_ = 0;
  SparseMatrix sparse_;
  std::vector<int> perm_;  ///< RCM ordering, shared by all solvers
  Vector cap_;
  Vector ambientLoad_;
  std::string signature_;
  std::shared_ptr<const SteadyKernel> steady_;  ///< from the shared memo
};

}  // namespace hayat
