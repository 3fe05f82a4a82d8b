// Big zero-filled regions of this process's own memory, backed by 2 MB pages.
//
// The emulated SSD media, the PMEM pool and the engine arena are each tens
// to hundreds of MB that the store touches at random: on 4 KB pages nearly
// every access to a cold object also misses the TLB. madvise
// (MADV_HUGEPAGE) asks the kernel to back the region with transparent huge
// pages; on a kernel whose THP mode is `madvise` (common default) nothing
// else turns them on. It is a hint on our own mapping — if THP is off or the
// call fails, the region simply stays on 4 KB pages.
//
// An anonymous mapping is already zero, so a fresh region needs no memset.
// The kernel zeroes each page on its first touch, and on a huge page that is
// 2 MB at once — plus, under THP `defrag=madvise`, any compaction needed to
// find a free 2 MB frame: hundreds of µs inside whichever store op or
// checkpoint touches it first. back_with_huge_pages therefore faults every
// page in right after the hint (MADV_POPULATE_WRITE, or one store per 4 KB
// on kernels without it), so that cost is paid once, at setup, 2 MB at a
// time. A region that is hinted is always pre-faulted.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <utility>

namespace dstore {

// Hint [p, p+n) for huge pages and fault all of it in now.
inline void back_with_huge_pages(void* p, size_t n) {
  if (p == nullptr || n == 0) return;
#ifdef MADV_HUGEPAGE
  // lint: allow-discard a refused hint leaves the region on 4 KB pages
  (void)madvise(p, n, MADV_HUGEPAGE);
#endif
#ifdef MADV_POPULATE_WRITE
  if (madvise(p, n, MADV_POPULATE_WRITE) == 0) return;
#endif
  for (size_t off = 0; off < n; off += 4096) static_cast<volatile char*>(p)[off] = 0;
}

// Owning handle to a zeroed anonymous mapping of `n` bytes, backed by
// back_with_huge_pages. Throws std::bad_alloc when the mapping fails.
class HugeRegion {
 public:
  HugeRegion() = default;
  explicit HugeRegion(size_t n) : size_(n) {
    if (n == 0) return;
    void* p = mmap(nullptr, n, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(p);
    back_with_huge_pages(base_, n);
  }
  ~HugeRegion() {
    if (base_ != nullptr) munmap(base_, size_);
  }
  HugeRegion(HugeRegion&& o) noexcept
      : base_(std::exchange(o.base_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  HugeRegion& operator=(HugeRegion&& o) noexcept {
    std::swap(base_, o.base_);
    std::swap(size_, o.size_);
    return *this;
  }
  HugeRegion(const HugeRegion&) = delete;
  HugeRegion& operator=(const HugeRegion&) = delete;

  char* get() const { return base_; }
  char& operator[](size_t i) const { return base_[i]; }

 private:
  char* base_ = nullptr;
  size_t size_ = 0;
};

}  // namespace dstore
