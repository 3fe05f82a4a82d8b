// Per-name atomic counters in an open-addressed table: the read counts of
// §4.4 (ReadCountTable) and DIPPER's in-flight record counts (Engine).
//
// A slot holds (name-hash tag, count). The first claim() of a name takes a
// slot with CAS and the slot is never released, so find(), which never
// claims, stops at the first empty slot: a name without a slot has count 0.
// A probe that meets neither the name nor an empty slot within `max_probe`
// slots falls back to the name's home slot and shares it with the name that
// owns it. Tables are sized from the capacity of the store that owns them
// (DESIGN.md §3), because a full table turns every miss into a scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "ds/key.h"

namespace dstore {

class NameCounts {
 public:
  struct Slot {
    std::atomic<uint64_t> tag{0};  // name hash (0 = empty; hash 0 remapped to 1)
    std::atomic<int64_t> count{0};
  };

  // `capacity` is rounded up to a power of two of at least 64 slots.
  NameCounts(size_t capacity, size_t max_probe)
      : slots_(round_up_pow2(capacity < 64 ? 64 : capacity)),
        bits_((unsigned)__builtin_ctzll(slots_.size())),
        max_probe_(max_probe < slots_.size() ? max_probe : slots_.size()) {}

  Slot& claim(const Key& name) {
    uint64_t h = tag_of(name);
    size_t mask = slots_.size() - 1;
    size_t home = hash_slot(h, bits_);
    for (size_t probe = 0, idx = home; probe < max_probe_; probe++, idx = (idx + 1) & mask) {
      uint64_t tag = slots_[idx].tag.load(std::memory_order_acquire);
      if (tag == h) return slots_[idx];
      if (tag == 0) {
        uint64_t expected = 0;
        if (slots_[idx].tag.compare_exchange_strong(expected, h, std::memory_order_acq_rel))
          return slots_[idx];
        if (expected == h) return slots_[idx];
      }
    }
    return slots_[home];
  }

  // The slot claim() would return, or null when `name` has none yet.
  const Slot* find(const Key& name) const {
    uint64_t h = tag_of(name);
    size_t mask = slots_.size() - 1;
    size_t home = hash_slot(h, bits_);
    for (size_t probe = 0, idx = home; probe < max_probe_; probe++, idx = (idx + 1) & mask) {
      uint64_t tag = slots_[idx].tag.load(std::memory_order_acquire);
      if (tag == h) return &slots_[idx];
      if (tag == 0) return nullptr;
    }
    return &slots_[home];
  }

  int64_t load(const Key& name) const {
    const Slot* s = find(name);
    return s == nullptr ? 0 : s->count.load(std::memory_order_acquire);
  }

  // Poll until `name`'s count is at most `allowed`.
  void wait_at_most(const Key& name, int64_t allowed) const {
    const Slot* s = find(name);
    if (s == nullptr) return;
    int spins = 0;
    while (s->count.load(std::memory_order_acquire) > allowed) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

 private:
  static size_t round_up_pow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  // FNV-1a's low bits barely differ between names that differ only in
  // their last characters ("k1", "k2"), so `h & mask` would pile sequential
  // names into long probe runs; a Fibonacci multiply takes the home slot
  // from the well-mixed high bits instead.
  static size_t hash_slot(uint64_t h, unsigned bits) {
    return (size_t)((h * 0x9E3779B97F4A7C15ull) >> (64 - bits));
  }

  static uint64_t tag_of(const Key& name) {
    uint64_t h = name.hash();
    return h == 0 ? 1 : h;
  }

  std::vector<Slot> slots_;
  unsigned bits_;
  size_t max_probe_;
};

}  // namespace dstore
