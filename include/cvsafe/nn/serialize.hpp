#pragma once

#include <iosfwd>
#include <string>

#include "cvsafe/nn/mlp.hpp"

/// \file serialize.hpp
/// Plain-text (de)serialization of trained networks, so planners trained by
/// examples/train_planner can be shipped and reloaded bit-exactly.

namespace cvsafe::nn {

/// Writes the network (architecture + parameters) to a stream.
/// Format: "cvsafe-mlp 1" header, layer count, then per layer:
/// in out activation, weight rows, bias row. Full hex doubles, lossless.
void save_mlp(const Mlp& net, std::ostream& os);

/// Convenience: saves to a file. Returns false on I/O failure. The write
/// is atomic (temp file, then rename), so concurrent writers of the same
/// path never leave a partial file behind.
bool save_mlp_file(const Mlp& net, const std::string& path);

/// Reads a network previously written by save_mlp.
/// Throws std::runtime_error on malformed input.
Mlp load_mlp(std::istream& is);

/// Convenience: loads from a file. Throws on I/O or parse failure.
Mlp load_mlp_file(const std::string& path);

}  // namespace cvsafe::nn
