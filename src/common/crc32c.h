// CRC32C (Castagnoli) — the end-to-end integrity checksum.
//
// Every persistence tier carries one: DIPPER log slots, metadata-zone
// entries, and the block device's per-4KB-page sidecar. The Castagnoli
// polynomial was chosen (over CRC32/ISO) because x86 has carried a
// dedicated instruction for it since SSE4.2, which matters on the read path
// where every page is verified. One `crc32q` chain is latency-bound (each
// instruction waits ~3 cycles on the previous one), so the hardware path
// runs three interleaved chains over adjacent stripes and folds them with a
// GF(2) shift table: a warm 4 KB page takes ~240 ns and a warm 1 KB value
// ~75 ns, against ~520 and ~135 ns for a single chain and ~2 µs for the
// slice-by-8 software path (4-vCPU Xeon VM, SSE4.2). Every path returns
// bit-identical values — they are on-media format.
//
// Seeding: checksums are *location-seeded* (slot index, entry index,
// absolute page number) so a structurally valid record or page read from
// the WRONG location fails verification — this is what catches misdirected
// writes, which plain content checksums cannot (the misplaced bytes are
// internally consistent).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dstore {

namespace crc32c_detail {

// Slice-by-8 tables for the reflected Castagnoli polynomial 0x82F63B78.
struct Tables {
  uint32_t t[8][256];
};

inline const Tables& tables() {
  static const Tables tbl = [] {
    Tables out;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      out.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = out.t[0][i];
      for (int s = 1; s < 8; s++) {
        c = out.t[0][c & 0xff] ^ (c >> 8);
        out.t[s][i] = c;
      }
    }
    return out;
  }();
  return tbl;
}

inline uint32_t extend_sw(uint32_t crc, const void* data, size_t n) {
  const Tables& tbl = tables();
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    w ^= crc;
    crc = tbl.t[7][w & 0xff] ^ tbl.t[6][(w >> 8) & 0xff] ^ tbl.t[5][(w >> 16) & 0xff] ^
          tbl.t[4][(w >> 24) & 0xff] ^ tbl.t[3][(w >> 32) & 0xff] ^
          tbl.t[2][(w >> 40) & 0xff] ^ tbl.t[1][(w >> 48) & 0xff] ^ tbl.t[0][w >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = tbl.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

// Stripe interleaving. The CRC register update is linear over GF(2) with
// no constant term, so for stripes A, B, C of kStripe bytes each
//   extend(c, A‖B‖C) = shift(shift(extend(c, A)) ^ extend(0, B)) ^ extend(0, C)
// where shift(x) = extend(x, kStripe zero bytes). shift is a 32×32 bit
// matrix, applied a byte at a time from four 256-entry tables.
inline constexpr size_t kStripe = 256;

struct ShiftTable {
  uint32_t t[4][256];
};

inline const ShiftTable& stripe_shift() {
  static const ShiftTable tbl = [] {
    ShiftTable out;
    const unsigned char zeros[kStripe] = {};
    uint32_t col[32];  // shift applied to each single-bit state
    for (int b = 0; b < 32; b++) col[b] = extend_sw(1u << b, zeros, kStripe);
    for (int byte = 0; byte < 4; byte++) {
      for (uint32_t v = 0; v < 256; v++) {
        uint32_t x = 0;
        for (int b = 0; b < 8; b++) {
          if ((v >> b) & 1) x ^= col[8 * byte + b];
        }
        out.t[byte][v] = x;
      }
    }
    return out;
  }();
  return tbl;
}

inline uint32_t shift_stripe(const ShiftTable& s, uint32_t crc) {
  return s.t[0][crc & 0xff] ^ s.t[1][(crc >> 8) & 0xff] ^ s.t[2][(crc >> 16) & 0xff] ^
         s.t[3][crc >> 24];
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("sse4.2"))) inline uint32_t extend_hw(uint32_t crc, const void* data,
                                                            size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = crc;
  if (n >= 3 * kStripe) {
    const ShiftTable& s = stripe_shift();
    do {
      uint64_t c1 = 0, c2 = 0;
      for (size_t i = 0; i < kStripe; i += 8) {
        uint64_t w0, w1, w2;
        __builtin_memcpy(&w0, p + i, 8);
        __builtin_memcpy(&w1, p + kStripe + i, 8);
        __builtin_memcpy(&w2, p + 2 * kStripe + i, 8);
        c = __builtin_ia32_crc32di(c, w0);
        c1 = __builtin_ia32_crc32di(c1, w1);
        c2 = __builtin_ia32_crc32di(c2, w2);
      }
      uint32_t ab = shift_stripe(s, static_cast<uint32_t>(c)) ^ static_cast<uint32_t>(c1);
      c = shift_stripe(s, ab) ^ static_cast<uint32_t>(c2);
      p += 3 * kStripe;
      n -= 3 * kStripe;
    } while (n >= 3 * kStripe);
  }
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(c);
  while (n-- > 0) crc = __builtin_ia32_crc32qi(crc, *p++);
  return crc;
}

__attribute__((target("sse4.2"))) inline uint32_t extend_u64_hw(uint32_t crc, uint64_t v) {
  return static_cast<uint32_t>(__builtin_ia32_crc32di(crc, v));
}

inline bool have_hw_crc() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#else
inline bool have_hw_crc() { return false; }
inline uint32_t extend_hw(uint32_t crc, const void* data, size_t n) {
  return extend_sw(crc, data, n);
}
inline uint32_t extend_u64_hw(uint32_t crc, uint64_t v) { return extend_sw(crc, &v, sizeof(v)); }
#endif

}  // namespace crc32c_detail

// Raw extension: feed `n` bytes into a running (non-inverted) CRC state.
// Compose location seeds and data by chaining calls; finish with
// crc32c_finish() (a plain xor keeps composition associative).
inline uint32_t crc32c_extend(uint32_t crc, const void* data, size_t n) {
  return crc32c_detail::have_hw_crc() ? crc32c_detail::extend_hw(crc, data, n)
                                      : crc32c_detail::extend_sw(crc, data, n);
}

inline uint32_t crc32c_extend_u64(uint32_t crc, uint64_t v) {
  return crc32c_detail::have_hw_crc() ? crc32c_detail::extend_u64_hw(crc, v)
                                      : crc32c_detail::extend_sw(crc, &v, sizeof(v));
}

// One-shot checksum of a buffer with an optional integer location seed.
// Never returns 0 for convenience of "0 = no checksum recorded" sidecars:
// a computed 0 is mapped to 1 (one extra collision in 2^32, irrelevant for
// corruption detection).
inline uint32_t crc32c(const void* data, size_t n, uint64_t seed = 0) {
  uint32_t crc = 0xffffffffu;
  crc = crc32c_extend_u64(crc, seed);
  crc = crc32c_extend(crc, data, n);
  crc ^= 0xffffffffu;
  return crc == 0 ? 1u : crc;
}

}  // namespace dstore
