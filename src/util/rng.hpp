// Reproducible random-number streams.
//
// Every stochastic component in an experiment (each client's Poisson process,
// each server's service-time draw, ...) owns its own RngStream derived from
// (master seed, stream id). Components therefore consume randomness
// independently: adding a client or reordering events never perturbs another
// component's draws, which keeps experiments comparable across configurations.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

#include "util/assert.hpp"

namespace speakup::util {

/// FNV-1a, used to hash stream names into seed material.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The engine seed of stream `stream_id` under `master_seed`: the SplitMix64
/// finalizer spreads correlated (seed, id) pairs across the whole 64-bit
/// space before they seed the Mersenne Twister.
constexpr std::uint64_t stream_seed(std::uint64_t master_seed, std::uint64_t stream_id) {
  std::uint64_t z = master_seed + 0x9e3779b97f4a7c15ull * (stream_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// std::mt19937_64(seed), bit for bit, in ~48 bytes until its 313th draw.
///
/// Seeding fills x[0..311] by x[0] = seed, x[i] = f·(x[i-1] ^ (x[i-1] >> 62)) + i,
/// and the first draw twists that array in place, so draw k returns
/// temper(x'[k]) with
///   x'[k]   = x[k+156]  ^ twist(x[k], x[k+1])     for k < 156,
///   x'[k]   = x'[k-156] ^ twist(x[k], x[k+1])     for 156 <= k < 311,
///   x'[311] = x'[155]   ^ twist(x[311], x'[0]).
/// Two cursors on the seed recurrence, at x[j] and x[j+156] (j = k mod 156),
/// give each of these in O(1), so the first 312 draws need no state array.
/// The 313th draw builds the real engine on the heap, skips it past the 312
/// words already handed out and serves every later draw from it: one
/// allocation per stream, once. A client that draws a few times per run
/// never pays for the 2.5 KB array.
class LazyMt19937_64 {
  using Mt = std::mt19937_64;

 public:
  using result_type = Mt::result_type;
  static constexpr result_type min() { return Mt::min(); }
  static constexpr result_type max() { return Mt::max(); }

  explicit LazyMt19937_64(result_type seed) : seed_(seed), lo_(seed), hi_(seed) {
    for (std::uint32_t i = 1; i <= kM; ++i) hi_ = seed_step(hi_, i);
  }

  result_type operator()() {
    if (engine_ != nullptr) return (*engine_)();
    if (draws_ == kN) {
      engine_ = std::make_unique<Mt>(seed_);
      engine_->discard(kN);
      return (*engine_)();
    }
    return temper(next_twisted());
  }

 private:
  static constexpr std::uint32_t kN = Mt::state_size;  // 312
  static constexpr std::uint32_t kM = Mt::shift_size;  // 156
  static constexpr result_type kLowerMask = (result_type{1} << Mt::mask_bits) - 1;

  static result_type seed_step(result_type x, std::uint32_t i) {
    return Mt::initialization_multiplier * (x ^ (x >> (Mt::word_size - 2))) + i;
  }
  static result_type twist(result_type upper, result_type lower) {
    const result_type y = (upper & ~kLowerMask) | (lower & kLowerMask);
    return (y >> 1) ^ ((y & 1) != 0 ? Mt::xor_mask : 0);
  }
  static result_type temper(result_type z) {
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    return z ^ (z >> Mt::tempering_l);
  }

  // x'[k] for k = draws_ < 312. On entry lo_ = x[j] and hi_ = x[j+156],
  // j = k mod 156.
  result_type next_twisted() {
    const std::uint32_t k = draws_++;
    const std::uint32_t j = k < kM ? k : k - kM;
    const result_type next_lo = seed_step(lo_, j + 1);
    const result_type first_half = hi_ ^ twist(lo_, next_lo);  // x'[j]
    lo_ = next_lo;
    if (k < kM) {
      if (k == 0) x0_ = first_half;
      if (k + 1 < kM) {
        hi_ = seed_step(hi_, k + kM + 1);
      } else {  // rewind: the second half walks x[0..] and x[156..] again
        hi_ = lo_;
        lo_ = seed_;
      }
      return first_half;
    }
    if (k + 1 == kN) return first_half ^ twist(hi_, x0_);
    const result_type next_hi = seed_step(hi_, k + 1);
    const result_type x = first_half ^ twist(hi_, next_hi);
    hi_ = next_hi;
    return x;
  }

  result_type seed_;
  result_type lo_;
  result_type hi_;
  result_type x0_ = 0;  // x'[0], which x'[311] reuses
  std::unique_ptr<Mt> engine_;
  std::uint32_t draws_ = 0;
};

/// One independent stream of pseudo-random numbers. Move-only: a copy would
/// replay the same draws in a second component, which is exactly the
/// coupling that per-component streams exist to rule out.
class RngStream {
 public:
  RngStream(std::uint64_t master_seed, std::string_view stream_name)
      : engine_(stream_seed(master_seed, fnv1a(stream_name))) {}
  RngStream(std::uint64_t master_seed, std::uint64_t stream_id)
      : engine_(stream_seed(master_seed, stream_id)) {}

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    SPEAKUP_ASSERT(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    SPEAKUP_ASSERT(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given rate (events per unit time). Mean = 1/rate.
  double exponential(double rate) {
    SPEAKUP_ASSERT(rate > 0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  LazyMt19937_64 engine_;
};

}  // namespace speakup::util
