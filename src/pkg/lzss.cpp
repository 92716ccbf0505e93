#include "pkg/lzss.hpp"

#include <array>
#include <cstring>
#include <vector>

namespace clc::pkg {

namespace {

constexpr std::size_t kWindow = 32768;     // 15-bit offsets
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;     // length-3 fits one byte
constexpr std::size_t kHashSize = 1 << 15;
constexpr int kMaxChain = 64;              // match-search effort bound

std::uint32_t hash3(const std::uint8_t* p) noexcept {
  const std::uint32_t v = std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                          (std::uint32_t{p[2]} << 16);
  return (v * 2654435761u) >> (32 - 15);
}

}  // namespace

Bytes lzss_compress(BytesView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  // Header: uncompressed size, little-endian u32.
  const auto n = static_cast<std::uint32_t>(input.size());
  out.push_back(static_cast<std::uint8_t>(n));
  out.push_back(static_cast<std::uint8_t>(n >> 8));
  out.push_back(static_cast<std::uint8_t>(n >> 16));
  out.push_back(static_cast<std::uint8_t>(n >> 24));
  if (input.empty()) return out;

  // Hash chains: head[h] = most recent position with hash h; prev[i % W]
  // links back through earlier positions sharing the hash.
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(kWindow, -1);

  std::size_t flag_at = 0;  // position of the current flag byte in `out`
  int flag_bit = 8;         // 8 => need a fresh flag byte

  auto put_flag = [&](bool is_match) {
    if (flag_bit == 8) {
      flag_at = out.size();
      out.push_back(0);
      flag_bit = 0;
    }
    if (is_match) out[flag_at] |= static_cast<std::uint8_t>(1u << flag_bit);
    ++flag_bit;
  };

  std::size_t pos = 0;
  while (pos < input.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= input.size()) {
      const std::uint32_t h = hash3(input.data() + pos);
      std::int32_t cand = head[h];
      int chain = kMaxChain;
      const std::size_t limit = std::min(kMaxMatch, input.size() - pos);
      while (cand >= 0 && chain-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const auto* a = input.data() + pos;
        const auto* b = input.data() + cand;
        std::size_t len = 0;
        while (len < limit && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - static_cast<std::size_t>(cand);
          if (len == limit) break;
        }
        cand = prev[static_cast<std::size_t>(cand) % kWindow];
      }
    }

    auto index_position = [&](std::size_t p) {
      if (p + kMinMatch <= input.size()) {
        const std::uint32_t h = hash3(input.data() + p);
        prev[p % kWindow] = head[h];
        head[h] = static_cast<std::int32_t>(p);
      }
    };

    if (best_len >= kMinMatch) {
      put_flag(true);
      const auto dist = static_cast<std::uint16_t>(best_dist - 1);  // 15 bits
      out.push_back(static_cast<std::uint8_t>(dist));
      out.push_back(static_cast<std::uint8_t>(dist >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      for (std::size_t i = 0; i < best_len; ++i) index_position(pos + i);
      pos += best_len;
    } else {
      put_flag(false);
      out.push_back(input[pos]);
      index_position(pos);
      ++pos;
    }
  }
  return out;
}

Result<Bytes> lzss_decompress(BytesView in) {
  if (in.size() < 4) return Error{Errc::corrupt_data, "lzss: short header"};
  const std::uint32_t n = std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
                          (std::uint32_t{in[2]} << 16) |
                          (std::uint32_t{in[3]} << 24);
  // A 3-byte match token expands to at most kMaxMatch bytes, so a header
  // claiming more than that ratio of the body is corrupt.
  if (n > (kMaxMatch / 3) * (in.size() - 4))
    return Error{Errc::corrupt_data, "lzss: size header exceeds body"};
  Bytes out;
  out.reserve(n);
  std::size_t pos = 4;
  std::uint8_t flags = 0;
  int flag_bit = 8;
  while (out.size() < n) {
    if (flag_bit == 8) {
      if (pos >= in.size()) return Error{Errc::corrupt_data, "lzss: truncated flags"};
      flags = in[pos++];
      flag_bit = 0;
    }
    const bool is_match = (flags >> flag_bit) & 1;
    ++flag_bit;
    if (is_match) {
      if (pos + 3 > in.size())
        return Error{Errc::corrupt_data, "lzss: truncated match"};
      const std::size_t dist =
          (std::size_t{in[pos]} | (std::size_t{in[pos + 1]} << 8)) + 1;
      const std::size_t len = std::size_t{in[pos + 2]} + kMinMatch;
      pos += 3;
      if (dist > out.size())
        return Error{Errc::corrupt_data, "lzss: offset before start"};
      if (out.size() + len > n)
        return Error{Errc::corrupt_data, "lzss: output overrun"};
      // Byte-by-byte copy: matches may overlap themselves (RLE case).
      std::size_t src = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    } else {
      if (pos >= in.size())
        return Error{Errc::corrupt_data, "lzss: truncated literal"};
      if (out.size() + 1 > n)
        return Error{Errc::corrupt_data, "lzss: output overrun"};
      out.push_back(in[pos++]);
    }
  }
  return out;
}

}  // namespace clc::pkg
