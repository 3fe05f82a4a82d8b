// IoQueue — a simulated NVMe submission/completion queue-pair over a
// BlockDevice.
//
// Real NVMe devices (the paper's P4800X) reward request overlap far more
// than per-request cost shaving: at QD >= 16 the device pipelines the
// fixed per-command latency internally and only the media bandwidth
// serializes. DStore's data plane spends ~88% of a put here (Table 3), so
// this layer is where the throughput lives.
//
// Model: submit() performs the IO's media effect immediately through
// BlockDevice::submit_io — which charges NO inline latency — and records
// the absolute deadline at which the emulated device would complete the
// transfer (fixed base latency parallel across in-flight IOs; bandwidth
// shares still serialized on the device's shared media channel, so the
// channel saturates exactly as before). The queue depth bounds outstanding
// submissions: submitting into a full queue blocks until the earliest
// deadline passes, exactly like ringing a full hardware SQ doorbell.
// Completions are reaped by poll() (non-blocking) or wait_all() (blocking);
// per-descriptor completion statuses let callers re-submit only the
// descriptors that failed (bounded-retry policy lives in the caller).
//
// Every IO still passes through the ssd.write / ssd.read fault points at
// submission time, in submission order — so single-threaded fault-plan
// schedules stay deterministic, and a crash fired mid-batch freezes the
// device with the batch's earlier descriptors already in its (PLP or not)
// write cache and the later ones acked into the void, which is precisely
// what losing power with a deep queue does to a real drive.
//
// A queue-pair is cheap (one vector) and single-owner by design — create
// one per operation or per thread, mirroring per-core NVMe queue-pairs;
// it performs no internal locking.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ssd/block_device.h"

namespace dstore::ssd {

class IoQueue {
 public:
  // `depth` == 1 degenerates to today's synchronous per-IO behaviour:
  // every submit waits out the previous IO's full latency first.
  IoQueue(BlockDevice* dev, uint32_t depth)
      : dev_(dev), depth_(depth == 0 ? 1 : depth) {}
  IoQueue(const IoQueue&) = delete;
  IoQueue& operator=(const IoQueue&) = delete;

  // Submit one descriptor; blocks (reaping internally) while `depth`
  // submissions are outstanding. Returns the submission id used to query
  // its completion status. An IO that fails at submission (injected
  // transient error, bounds) completes immediately with that status and
  // never occupies a queue slot.
  size_t submit(const IoDesc& d);

  // Reap any completions whose deadline has passed; returns the number of
  // submissions still in flight. Never blocks.
  size_t poll();

  // Block until every outstanding submission has completed.
  void wait_all();

  // Synchronously re-run submission `id`'s descriptor (the per-descriptor
  // retry path: only the failed IO is re-issued, and it pays its device
  // latency again). Returns — and re-records — the new completion status.
  Status resubmit(size_t id);

  size_t size() const { return subs_.size(); }
  uint32_t depth() const { return depth_; }
  size_t in_flight() const { return inflight_; }
  // Descriptors re-issued through resubmit() over this queue's lifetime.
  size_t resubmits() const { return resubmits_; }
  // Completions that carried a page-checksum failure (Status corruption).
  // The device verifies the sidecar before posting the completion, so this
  // counts every read whose data could not be trusted.
  size_t crc_failures() const { return crc_failures_; }

  // Completion status of submission `id`. Only meaningful once reaped
  // (poll()/wait_all()); an unreaped in-flight IO reads as ok.
  const Status& status_of(size_t id) const { return subs_[id].status; }
  const IoDesc& desc_of(size_t id) const { return subs_[id].desc; }

  // True once every submission has been reaped with an ok status.
  bool all_ok() const;

  // The latest completion deadline (absolute now_ns()) of the submissions
  // not yet reaped; 0 when none is outstanding.
  uint64_t last_deadline() const;

  // True when any completed submission carries a failure. In this emulation
  // errors land at submission time (the media effect is immediate); a queue
  // with no failure observed here is guaranteed to drain clean — the
  // outstanding deadlines are pure latency. This is what lets an early-ack
  // caller commit before wait_all() and park the queue, and a deferred read
  // hand its bytes up before last_deadline().
  bool any_failed() const {
    for (const auto& s : subs_) {
      if (s.done && !s.status.is_ok()) return true;
    }
    return false;
  }

 private:
  struct Sub {
    IoDesc desc;
    uint64_t deadline = 0;  // absolute now_ns() completion time
    Status status;
    bool done = false;
  };

  // Reap what is ready; if still at/above `target` in flight, sleep until
  // the earliest outstanding deadline and reap again.
  void reap_until_below(size_t target);

  BlockDevice* dev_;
  uint32_t depth_;
  std::vector<Sub> subs_;
  size_t inflight_ = 0;
  size_t resubmits_ = 0;
  size_t crc_failures_ = 0;
};

}  // namespace dstore::ssd
