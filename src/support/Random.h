//===- support/Random.h - Deterministic PRNG --------------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SplitMix64 pseudo-random generator. Workload generators and property
/// tests need reproducible streams independent of the standard library
/// implementation, so we ship our own.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_RANDOM_H
#define ICORES_SUPPORT_RANDOM_H

#include <cstdint>

namespace icores {

/// SplitMix64: tiny, fast, and statistically solid for test workloads.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// The \p N-th output (0-based) of the stream seeded with \p Seed,
  /// without drawing the ones before it: after N + 1 steps the state is
  /// Seed + (N + 1) * Gamma, so every element is one mix away. Seeders
  /// that index the stream by a cell's position fill any region, in any
  /// order or split, with exactly the values one sequential scan draws.
  static uint64_t at(uint64_t Seed, uint64_t N) {
    return mix(Seed + (N + 1) * Gamma);
  }

  /// Maps 64 random bits to a double uniformly distributed in [Lo, Hi)
  /// (what nextInRange() does with the next output).
  static double inRange(uint64_t Bits, double Lo, double Hi) {
    return Lo + (Hi - Lo) * unit(Bits);
  }

  /// Returns the next 64 random bits.
  uint64_t next() {
    State += Gamma;
    return mix(State);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() { return unit(next()); }

  /// Returns a double uniformly distributed in [Lo, Hi).
  double nextInRange(double Lo, double Hi) { return inRange(next(), Lo, Hi); }

  /// Returns an integer uniformly distributed in [0, Bound).
  uint64_t nextBounded(uint64_t Bound) {
    // Bound == 0 would be a caller bug; map it to 0 deterministically.
    return Bound == 0 ? 0 : next() % Bound;
  }

private:
  static constexpr uint64_t Gamma = 0x9e3779b97f4a7c15ULL;

  static uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Maps 64 random bits to a double uniformly distributed in [0, 1).
  static double unit(uint64_t Bits) {
    return static_cast<double>(Bits >> 11) * 0x1.0p-53;
  }

  uint64_t State;
};

} // namespace icores

#endif // ICORES_SUPPORT_RANDOM_H
