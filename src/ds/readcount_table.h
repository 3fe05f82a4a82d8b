// Read-count hash table for read-write concurrency control (§4.4).
//
// "For resolving read-write concurrency, we introduce a new in-memory hash
// table that maps object names to their current read count. The read count
// is updated using the atomic fetch-and-add instruction."
//
// A writer polls an object's read count until it drops to zero before
// mutating; readers bump it around their access. The table is purely
// volatile (its correct post-crash state is all-zero), so it lives outside
// the arena.
//
// Only readers claim a slot (NameCounts): a writer's lookup leaves a name
// with no slot alone, since no slot means no reader. A probe gives up after
// 64 slots and shares the home slot, so a table that readers of many
// distinct names have filled degrades into shared counters instead of
// full-table scans. A shared counter is conservative (extra waiting), never
// unsafe.
#pragma once

#include <cstdint>

#include "ds/key.h"
#include "ds/name_counts.h"

namespace dstore {

class ReadCountTable {
 public:
  explicit ReadCountTable(size_t capacity = 1 << 16) : counts_(capacity, 64) {}

  // Reader entering: fetch-and-add on the object's counter.
  void inc(const Key& name) { counts_.claim(name).count.fetch_add(1, std::memory_order_acquire); }
  // Reader leaving.
  void dec(const Key& name) { counts_.claim(name).count.fetch_sub(1, std::memory_order_release); }

  uint64_t load(const Key& name) const { return (uint64_t)counts_.load(name); }

  // Writer-side: poll until no reader holds the object (§4.4: "we simply
  // poll on it until it is zero").
  void wait_until_unread(const Key& name) const { counts_.wait_at_most(name, 0); }

  // RAII reader guard.
  class ReadGuard {
   public:
    ReadGuard(ReadCountTable& t, const Key& name) : t_(t), name_(name) { t_.inc(name_); }
    ~ReadGuard() { t_.dec(name_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    ReadCountTable& t_;
    Key name_;
  };

 private:
  NameCounts counts_;
};

}  // namespace dstore
