#include "ssd/io_queue.h"

#include <algorithm>

#include "common/clock.h"

namespace dstore::ssd {

size_t IoQueue::submit(const IoDesc& d) {
  reap_until_below(depth_);
  Sub sub;
  sub.desc = d;
  auto r = dev_->submit_io(d);
  if (r.is_ok()) {
    sub.deadline = r.value();
    if (sub.deadline <= now_ns()) {
      sub.done = true;  // completed inline (zero-latency device, frozen, ...)
    } else {
      inflight_++;
    }
  } else {
    // Errored at submission: the device posts the completion immediately.
    // A checksum-failed read completes here too — the device verifies the
    // sidecar before acking, so the bad completion is visible the moment
    // the caller reaps it, never after the data has been consumed.
    sub.status = r.status();
    sub.done = true;
    if (sub.status.code() == Code::kCorruption) crc_failures_++;
  }
  subs_.push_back(std::move(sub));
  return subs_.size() - 1;
}

size_t IoQueue::poll() {
  uint64_t now = now_ns();
  for (Sub& s : subs_) {
    if (!s.done && s.deadline <= now) {
      s.done = true;
      inflight_--;
    }
  }
  return inflight_;
}

void IoQueue::reap_until_below(size_t target) {
  while (poll() >= target) {
    uint64_t earliest = UINT64_MAX;
    for (const Sub& s : subs_) {
      if (!s.done) earliest = std::min(earliest, s.deadline);
    }
    uint64_t now = now_ns();
    if (earliest != UINT64_MAX && earliest > now) spin_for_ns(earliest - now);
  }
}

void IoQueue::wait_all() { reap_until_below(1); }

Status IoQueue::resubmit(size_t id) {
  resubmits_++;
  Sub& sub = subs_[id];
  auto r = dev_->submit_io(sub.desc);
  if (!r.is_ok()) {
    sub.status = r.status();
    sub.done = true;
    if (sub.status.code() == Code::kCorruption) crc_failures_++;
    return sub.status;
  }
  uint64_t now = now_ns();
  if (r.value() > now) spin_for_ns(r.value() - now);
  sub.status = Status::ok();
  sub.done = true;
  return sub.status;
}

uint64_t IoQueue::last_deadline() const {
  uint64_t last = 0;
  for (const Sub& s : subs_) {
    if (!s.done) last = std::max(last, s.deadline);
  }
  return last;
}

bool IoQueue::all_ok() const {
  for (const Sub& s : subs_) {
    if (!s.done || !s.status.is_ok()) return false;
  }
  return true;
}

}  // namespace dstore::ssd
