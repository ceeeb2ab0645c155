// Persistence for run-time state.
//
// A deployed Hayat system must survive reboots: the paper's health map is
// accumulated over *years*, so it has to be checkpointed (the aging
// sensors only measure present degradation; the map also carries the
// initial variation frequencies).  This module provides a small,
// versioned, line-oriented text format for health maps.  Per-epoch
// results are exported by engine/reporter.hpp (writeEpochsCsv).
#pragma once

#include <iosfwd>
#include <string>

#include "aging/health.hpp"

namespace hayat {

/// Writes a health map checkpoint (versioned text format).
void saveHealthMap(std::ostream& out, const HealthMap& map);

/// Reads a checkpoint written by saveHealthMap.  Throws hayat::Error on
/// format or version mismatches.
HealthMap loadHealthMap(std::istream& in);

/// Convenience: file-path overloads.
void saveHealthMapFile(const std::string& path, const HealthMap& map);
HealthMap loadHealthMapFile(const std::string& path);

}  // namespace hayat
