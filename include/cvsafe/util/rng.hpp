#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

/// \file rng.hpp
/// Deterministic, seedable pseudo-random number generation.
///
/// All stochastic components of the library (communication drops, sensor
/// noise, workload generation, NN weight initialization) draw from this
/// generator so that every simulation is exactly reproducible from a seed.

namespace cvsafe::util {

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high-quality, 2^256-1 period.
///
/// The raw 64-bit seed is expanded into the 256-bit state with SplitMix64,
/// which guarantees a well-mixed state even for small consecutive seeds
/// (0, 1, 2, ...) as used by the batch simulation runner.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from \p seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  /// Returns the next raw 64-bit output.
  std::uint64_t next_u64();

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  result_type operator()() { return next_u64(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial: true with probability \p p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal deviate (Box-Muller; caches the second deviate).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Advances the generator exactly as \p n calls to normal() would,
  /// cached deviate included, without computing the skipped deviates:
  /// every later draw is the one it would have been. A deviate cached on
  /// entry counts as the first; each further pair costs its raw draws
  /// (the u1 == 0 redraw included); when \p n leaves the second deviate
  /// of a pair cached, that pair is computed in full.
  void skip_normals(std::size_t n);

  /// Splits off an independent generator (seeded from this stream).
  /// Used to give each simulation in a batch its own stream.
  Rng split();

 private:
  std::uint64_t state_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Derives a well-mixed child seed from a (base, stream) pair: the
/// SplitMix64 finalizer is applied to the base and again to the
/// stream-xored result, so nearby bases and consecutive stream indices
/// land in unrelated generator states. For a fixed base the map
/// stream -> seed is injective; use one stream index per sub-batch /
/// sweep point to keep their episode seed ranges from overlapping the
/// way raw `base + stride * i` arithmetic can.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

}  // namespace cvsafe::util
