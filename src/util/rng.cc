#include "util/rng.h"

namespace epx {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Rng::reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

uint64_t Rng::next() {
  const uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

uint64_t Rng::uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::uniform_range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::uniform_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform_double() < probability;
}

}  // namespace epx
