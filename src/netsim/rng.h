// Deterministic random-number generation for reproducible experiments.
//
// All experiment binaries take an explicit seed; two runs with the same seed
// produce byte-identical tables. We implement xoshiro256** (Blackman &
// Vigna) seeded through SplitMix64 rather than using std::mt19937 so the
// stream is stable across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ecsdns::netsim {

// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Derives the sub-seed for an independent stream split off a base seed —
// the convention sharded simulations use to give every shard its own
// generator. Two SplitMix64 passes separated by a golden-ratio stride keep
// stream i statistically unrelated both to stream j and to Rng(seed)
// itself (which expands the raw seed through a single pass).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream_id) {
  SplitMix64 outer(seed);
  const std::uint64_t base = outer.next();
  SplitMix64 inner(base ^ (0x9e3779b97f4a7c15ull * (stream_id + 1)));
  return inner.next();
}

// xoshiro256**: fast, high-quality, tiny-state generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  // Stream `stream_id` split from `seed` (see stream_seed above). The
  // determinism contract for sharded runs relies on shard i always drawing
  // from stream i, regardless of how shards map onto threads.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(stream_seed(seed, stream_id));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform(std::uint64_t bound) {
    if (bound == 0) return 0;
    // 128-bit multiply-shift; retry on the biased low region.
    for (;;) {
      const std::uint64_t x = next_u64();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= static_cast<std::uint64_t>(-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return uniform_double() < p; }

  // Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[uniform(v.size())];
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform(i)]);
    }
  }

  // Exponentially distributed value with the given mean (inter-arrival
  // times of Poisson query processes).
  double exponential(double mean);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Zipf-distributed ranks in [0, n), exponent `s` — DNS hostname popularity
// is classically Zipfian, which is what makes caches effective at all.
// Sampling inverts a precomputed CDF: a sample is the first rank whose CDF
// reaches a uniform draw u, exactly what a binary search would return. A
// guide table (guide_[k] = first rank whose CDF reaches k/n) starts the
// search at guide_[floor(u*n)], a short scan from the answer: O(1) expected
// per sample, with the table built in one linear pass.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(Rng& rng) const;
  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

}  // namespace ecsdns::netsim
