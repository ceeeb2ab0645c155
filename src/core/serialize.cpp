#include "core/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace hayat {

namespace {
constexpr const char* kHealthMagic = "hayat-healthmap-v1";
}

void saveHealthMap(std::ostream& out, const HealthMap& map) {
  out << kHealthMagic << '\n' << map.coreCount() << '\n';
  out << std::setprecision(17);
  for (int i = 0; i < map.coreCount(); ++i) {
    out << map.initialFmax(i) << ' ' << map.state(i).delayFactor() << '\n';
  }
  HAYAT_REQUIRE(out.good(), "health map write failed");
}

HealthMap loadHealthMap(std::istream& in) {
  std::string magic;
  in >> magic;
  HAYAT_REQUIRE(magic == kHealthMagic,
                "not a hayat health map checkpoint (bad magic '" + magic +
                    "')");
  int cores = 0;
  in >> cores;
  HAYAT_REQUIRE(in.good() && cores > 0, "corrupt health map header");
  std::vector<Hertz> fmax(static_cast<std::size_t>(cores));
  std::vector<double> delay(static_cast<std::size_t>(cores));
  for (int i = 0; i < cores; ++i) {
    in >> fmax[static_cast<std::size_t>(i)] >> delay[static_cast<std::size_t>(i)];
    HAYAT_REQUIRE(!in.fail(), "corrupt health map entry");
  }
  HealthMap map(std::move(fmax));
  for (int i = 0; i < cores; ++i)
    map.state(i) = CoreAgingState::fromDelayFactor(
        delay[static_cast<std::size_t>(i)]);
  return map;
}

void saveHealthMapFile(const std::string& path, const HealthMap& map) {
  std::ofstream out(path);
  HAYAT_REQUIRE(out.is_open(), "cannot open '" + path + "' for writing");
  saveHealthMap(out, map);
}

HealthMap loadHealthMapFile(const std::string& path) {
  std::ifstream in(path);
  HAYAT_REQUIRE(in.is_open(), "cannot open '" + path + "' for reading");
  return loadHealthMap(in);
}

}  // namespace hayat
