#pragma once

#include <string>

#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/util/config_file.hpp"

/// \file config_io.hpp
/// sim::LeftTurnSimConfig <-> INI configuration files, so experiments can
/// be described declaratively and rerun from the command line:
///
///   [geometry]
///   ego_front = 5.0
///   ego_back = 15.0
///   [comm]
///   drop_prob = 0.4
///   delay = 0.25
///   [sensor]
///   delta = 1.0
///
/// Unknown keys are rejected to catch typos.

namespace cvsafe::eval {

/// Applies the recognized keys of \p file on top of \p base.
/// Throws std::runtime_error on unknown keys or invalid values.
sim::LeftTurnSimConfig apply_config_file(sim::LeftTurnSimConfig base,
                                         const util::ConfigFile& file);

/// Convenience: paper defaults + overrides from \p path.
sim::LeftTurnSimConfig load_sim_config(const std::string& path);

/// Serializes every recognized key of \p config as an INI document that
/// apply_config_file reproduces exactly (round trip).
std::string sim_config_to_ini(const sim::LeftTurnSimConfig& config);

/// Writes sim_config_to_ini to \p path. Returns false on I/O failure.
bool save_sim_config(const sim::LeftTurnSimConfig& config,
                     const std::string& path);

}  // namespace cvsafe::eval
