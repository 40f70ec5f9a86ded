#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

/// The one 64-bit hash of the library: XXH64 with seed 0, as published
/// (Yann Collet's xxHash specification).
///
/// It runs at three sites: the plan-cache key
/// (`DependenceGraph::fingerprint`), the trailer that seals a plan image
/// (core/plan_io) and the trailer of every service frame
/// (service/protocol). Input is consumed as four 8-byte lanes per 32-byte
/// stripe, each word read little-endian on every host, so a digest is the
/// same on every platform.
///
/// Each lane step is acc = rotl(acc + w·P2, 31)·P1. With P1 and P2 odd it
/// is a bijection of the word w for a fixed lane and of the lane for a
/// fixed word, so any single-word change — every single-bit flip included
/// — changes its lane. The final merge of the four lanes is not a
/// bijection; the digest then differs except with probability about
/// 2^-64, the bound of any 64-bit checksum. Not a cryptographic hash: it
/// guards against corruption and accidental key collisions, not against
/// an adversary who can choose the bytes.
namespace rtl {

/// Streaming XXH64. Feeding the bytes in any split gives the digest of
/// their concatenation.
class Hash64 {
 public:
  /// Append `len` bytes at `data` (`data` may be null when `len` is 0).
  void update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += len;
    if (buffered_ + len < kStripe) {
      if (len > 0) std::memcpy(buf_ + buffered_, p, len);
      buffered_ += len;
      return;
    }
    if (buffered_ > 0) {
      const std::size_t fill = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, fill);
      stripes(buf_, 1);
      p += fill;
      len -= fill;
    }
    stripes(p, len / kStripe);
    p += len - len % kStripe;
    buffered_ = len % kStripe;
    if (buffered_ > 0) std::memcpy(buf_, p, buffered_);
  }

  /// Digest of every byte appended so far; the state is left unchanged,
  /// so more bytes may follow.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) +
          std::rotl(lane_[2], 12) + std::rotl(lane_[3], 18);
      for (const std::uint64_t v : lane_) h = (h ^ round(0, v)) * kP1 + kP4;
    } else {
      h = kP5;
    }
    h += total_;
    const unsigned char* p = buf_;
    std::size_t len = buffered_;
    for (; len >= 8; p += 8, len -= 8) {
      h = std::rotl(h ^ round(0, load_le(p, 8)), 27) * kP1 + kP4;
    }
    if (len >= 4) {
      h = std::rotl(h ^ load_le(p, 4) * kP1, 23) * kP2 + kP3;
      p += 4;
      len -= 4;
    }
    for (; len > 0; ++p, --len) h = std::rotl(h ^ *p * kP5, 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  static constexpr std::size_t kStripe = 32;

  static std::uint64_t round(std::uint64_t acc, std::uint64_t w) noexcept {
    return std::rotl(acc + w * kP2, 31) * kP1;
  }

  /// `bytes` (4 or 8) little-endian bytes at `p`, zero-extended.
  static std::uint64_t load_le(const unsigned char* p,
                               std::size_t bytes) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint64_t v = 0;
      std::memcpy(&v, p, bytes);
      return v;
    } else {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < bytes; ++i) {
        v |= std::uint64_t{p[i]} << (8 * i);
      }
      return v;
    }
  }

  /// Fold `count` whole stripes at `p` into the lanes. The lanes live in
  /// locals for the loop: stores through `p` could alias the members.
  void stripes(const unsigned char* p, std::size_t count) noexcept {
    std::uint64_t v0 = lane_[0], v1 = lane_[1], v2 = lane_[2], v3 = lane_[3];
    for (; count > 0; --count, p += kStripe) {
      v0 = round(v0, load_le(p, 8));
      v1 = round(v1, load_le(p + 8, 8));
      v2 = round(v2, load_le(p + 16, 8));
      v3 = round(v3, load_le(p + 24, 8));
    }
    lane_[0] = v0;
    lane_[1] = v1;
    lane_[2] = v2;
    lane_[3] = v3;
  }

  std::uint64_t lane_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::uint64_t total_ = 0;
  std::size_t buffered_ = 0;
  unsigned char buf_[kStripe] = {};
};

/// One-shot XXH64 of `len` bytes at `data`.
[[nodiscard]] inline std::uint64_t hash64(const void* data,
                                          std::size_t len) noexcept {
  Hash64 h;
  h.update(data, len);
  return h.digest();
}

}  // namespace rtl
