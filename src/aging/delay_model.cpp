#include "aging/delay_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hayat {

std::string cellName(CellKind kind) {
  switch (kind) {
    case CellKind::Inverter: return "INV";
    case CellKind::Nand2: return "NAND2";
    case CellKind::Nor2: return "NOR2";
    case CellKind::FlipFlop: return "DFF";
  }
  throw Error("unknown cell kind");
}

Seconds nominalCellDelay(CellKind kind) {
  // FO4-scaled representative delays for an 11 nm-class library.  Only the
  // *ratios* matter for delay factors; absolute values set the path count
  // needed to reach a 3 GHz cycle (~333 ps).
  switch (kind) {
    case CellKind::Inverter: return 4.0e-12;
    case CellKind::Nand2: return 6.0e-12;
    case CellKind::Nor2: return 7.0e-12;   // stacked PMOS: slower & NBTI-hot
    case CellKind::FlipFlop: return 18.0e-12;  // clk-to-q
  }
  throw Error("unknown cell kind");
}

CriticalPath::CriticalPath(std::vector<LogicElement> elements)
    : elements_(std::move(elements)) {
  HAYAT_REQUIRE(!elements_.empty(), "critical path needs >= 1 element");
  for (const LogicElement& le : elements_) {
    HAYAT_REQUIRE(le.nominalDelay > 0.0, "element delay must be positive");
    HAYAT_REQUIRE(le.dutyWeight >= 0.0 && le.dutyWeight <= 1.0,
                  "duty weight must be in [0, 1]");
    nominalDelay_ += le.nominalDelay;
  }
}

Seconds CriticalPath::agedDelay(const NbtiModel& nbti, Kelvin temperature,
                                double coreDuty, Years age) const {
  HAYAT_REQUIRE(coreDuty >= 0.0 && coreDuty <= 1.0,
                "core duty must be in [0, 1]");
  Seconds total = 0.0;
  for (const LogicElement& le : elements_) {
    const double elementDuty = std::min(1.0, le.dutyWeight * coreDuty);
    const double factor =
        nbti.delayFactor(temperature, elementDuty, age);
    total += le.nominalDelay * factor;
  }
  return total;
}

CorePathSet::CorePathSet(std::vector<CriticalPath> paths)
    : paths_(std::move(paths)) {
  HAYAT_REQUIRE(!paths_.empty(), "core needs >= 1 critical path");
  for (const CriticalPath& p : paths_)
    nominalDelay_ = std::max(nominalDelay_, p.nominalDelay());
}

CorePathSet CorePathSet::synthesize(Rng& rng, int pathCount,
                                    int elementsPerPath) {
  HAYAT_REQUIRE(pathCount >= 1, "need >= 1 path");
  HAYAT_REQUIRE(elementsPerPath >= 1, "need >= 1 element per path");
  static constexpr CellKind kinds[] = {CellKind::Inverter, CellKind::Nand2,
                                       CellKind::Nor2, CellKind::FlipFlop};
  std::vector<CriticalPath> paths;
  paths.reserve(static_cast<std::size_t>(pathCount));
  for (int p = 0; p < pathCount; ++p) {
    // Paths in the top-x% report are within a few percent of each other;
    // vary the element count by +-25% around the target.
    const int jitter = elementsPerPath / 4;
    const int count =
        elementsPerPath + (jitter > 0 ? rng.uniformInt(2 * jitter + 1) - jitter
                                      : 0);
    std::vector<LogicElement> elements;
    elements.reserve(static_cast<std::size_t>(std::max(count, 2)));
    // Every path launches from and captures into a flip-flop.
    LogicElement launch{CellKind::FlipFlop,
                        nominalCellDelay(CellKind::FlipFlop),
                        rng.uniform(0.3, 0.7)};
    elements.push_back(launch);
    for (int e = 0; e < std::max(count - 2, 1); ++e) {
      const CellKind kind = kinds[rng.uniformInt(3)];  // combinational only
      LogicElement le;
      le.kind = kind;
      // +-10% per-instance delay spread (load/slew differences).
      le.nominalDelay = nominalCellDelay(kind) * rng.uniform(0.9, 1.1);
      // Signal probabilities from "gate-level simulations": most nets
      // toggle around 0.5, NOR stacks skew high (PMOS in series under
      // stress more often).
      le.dutyWeight = kind == CellKind::Nor2 ? rng.uniform(0.5, 1.0)
                                             : rng.uniform(0.2, 0.8);
      elements.push_back(le);
    }
    LogicElement capture{CellKind::FlipFlop,
                         nominalCellDelay(CellKind::FlipFlop),
                         rng.uniform(0.3, 0.7)};
    elements.push_back(capture);
    paths.emplace_back(std::move(elements));
  }
  return CorePathSet(std::move(paths));
}

const CriticalPath& CorePathSet::path(int i) const {
  HAYAT_REQUIRE(i >= 0 && i < pathCount(), "path index out of range");
  return paths_[static_cast<std::size_t>(i)];
}

Seconds CorePathSet::nominalDelay() const { return nominalDelay_; }

double CorePathSet::delayFactor(const NbtiModel& nbti, Kelvin temperature,
                                double coreDuty, Years age) const {
  Seconds worst = 0.0;
  for (const CriticalPath& p : paths_)
    worst = std::max(worst, p.agedDelay(nbti, temperature, coreDuty, age));
  return worst / nominalDelay_;
}

std::vector<double> CorePathSet::delayFactorGrid(
    const NbtiModel& nbti, const std::vector<double>& temperatures,
    const std::vector<double>& duties, const std::vector<double>& ages) const {
  const double exponent = nbti.config().timeExponent;
  std::vector<double> temperatureFactor(temperatures.size());
  for (std::size_t i = 0; i < temperatures.size(); ++i)
    temperatureFactor[i] = nbti.temperatureFactor(temperatures[i]);
  std::vector<double> agePower(ages.size());
  for (std::size_t k = 0; k < ages.size(); ++k) {
    HAYAT_REQUIRE(ages[k] >= 0.0, "age must be non-negative");
    agePower[k] = std::pow(ages[k], exponent);
  }
  // Every element's (weight * duty)^(1/6), per duty point, in path order.
  std::size_t elements = 0;
  for (const CriticalPath& p : paths_) elements += p.elements().size();
  std::vector<double> dutyPower(duties.size() * elements);
  for (std::size_t j = 0; j < duties.size(); ++j) {
    HAYAT_REQUIRE(duties[j] >= 0.0 && duties[j] <= 1.0,
                  "core duty must be in [0, 1]");
    double* power = dutyPower.data() + j * elements;
    for (const CriticalPath& p : paths_)
      for (const LogicElement& le : p.elements()) {
        const double elementDuty = std::min(1.0, le.dutyWeight * duties[j]);
        HAYAT_REQUIRE(elementDuty >= 0.0 && elementDuty <= 1.0,
                      "duty cycle must be in [0, 1]");
        *power++ = std::pow(elementDuty, exponent);
      }
  }

  // Per (T, d) cell line: every path's element sum and the running max
  // advance along the age axis together; each entry still adds its
  // elements in path order and takes the max over paths in order.
  const std::size_t lineLength = ages.size();
  std::vector<double> out(temperatures.size() * duties.size() * lineLength);
  std::vector<double> total(lineLength);
  double* line = out.data();
  for (std::size_t i = 0; i < temperatures.size(); ++i) {
    for (std::size_t j = 0; j < duties.size(); ++j, line += lineLength) {
      const double* power = dutyPower.data() + j * elements;
      std::fill(line, line + lineLength, 0.0);  // the running worst path
      for (const CriticalPath& p : paths_) {
        std::fill(total.begin(), total.end(), 0.0);
        for (const LogicElement& le : p.elements()) {
          // NbtiModel::stressPrefactor, then deltaVth, bitwise.
          const double prefactor = temperatureFactor[i] * *power++;
          for (std::size_t k = 0; k < lineLength; ++k)
            total[k] += le.nominalDelay * nbti.delayFactorFromDeltaVth(
                                              prefactor * agePower[k]);
        }
        for (std::size_t k = 0; k < lineLength; ++k)
          line[k] = std::max(line[k], total[k]);
      }
      for (std::size_t k = 0; k < lineLength; ++k) line[k] /= nominalDelay_;
    }
  }
  return out;
}

}  // namespace hayat
