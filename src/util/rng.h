// Deterministic random number generation.
//
// All randomness in the simulator flows through Rng instances seeded from
// the experiment configuration, so every run is exactly reproducible.
// The generator is xoshiro256**, seeded via splitmix64 — fast, good
// statistical quality, and trivially serialisable.
#pragma once

#include <cstdint>

namespace epx {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed via splitmix64.
  void reseed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_range(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// true with the given probability (clamped to [0, 1]).
  bool chance(double probability);

 private:
  uint64_t state_[4];
};

/// splitmix64 step, exposed for seeding/hash mixing.
uint64_t splitmix64(uint64_t& state);

}  // namespace epx
