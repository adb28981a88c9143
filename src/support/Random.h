//===- support/Random.h - Deterministic random numbers ---------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic pseudo-random generator (SplitMix64). Used by the
/// interpreter to initialize live-in arrays and by the property tests to
/// generate random programs. Deterministic across platforms so goldens are
/// stable.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SUPPORT_RANDOM_H
#define ALF_SUPPORT_RANDOM_H

#include <cstdint>

namespace alf {

/// SplitMix64 generator. Cheap, high quality for test/data purposes, and
/// fully deterministic given the seed.
class SplitMix64 {
  uint64_t State;

public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64-bit value.
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBounded(uint64_t Bound) { return next() % Bound; }

  /// Returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform double in [Lo, Hi).
  double nextDouble(double Lo, double Hi) {
    return Lo + (Hi - Lo) * nextDouble();
  }

  /// The \p N-th (0-based) 64-bit draw of the stream seeded with
  /// \p Seed, in O(1): SplitMix64 advances its state by a constant, so
  /// any position is directly addressable. Lets exec::allocateStorage
  /// seed a large array in chunks on several threads, each chunk exactly
  /// as the serial stream would.
  static uint64_t at(uint64_t Seed, uint64_t N) {
    uint64_t Z = Seed + (N + 1) * 0x9e3779b97f4a7c15ULL;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// The \p N-th double draw in [0,1) of the stream seeded with \p Seed.
  static double doubleAt(uint64_t Seed, uint64_t N) {
    return static_cast<double>(at(Seed, N) >> 11) * 0x1.0p-53;
  }

  /// The \p N-th draw of nextDouble(Lo, Hi) on the stream seeded with
  /// \p Seed.
  static double doubleAt(uint64_t Seed, uint64_t N, double Lo, double Hi) {
    return Lo + (Hi - Lo) * doubleAt(Seed, N);
  }
};

} // namespace alf

#endif // ALF_SUPPORT_RANDOM_H
