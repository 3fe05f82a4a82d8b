// Shared pieces of the repository benchmark: options, the result record,
// exact percentiles, tagged values, the in-memory span recorder and the
// bench-side timing decorators around the store's injection interfaces
// (ssd::BlockDevice, net::ReplHandler, dstore::ReplSink).
//
// Everything here lives outside src/: the benchmark observes the program
// only through its public functions, those interfaces, and the metrics the
// program already exports.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dstore/dstore.h"
#include "net/wire.h"
#include "ssd/block_device.h"

namespace perfbench {

// ---- options and results --------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> e2e;    // untraced run: end-to-end metrics
  std::map<std::string, Metric> layer;  // traced run: per-layer metrics
  uint64_t attempted = 0;
  uint64_t failed = 0;      // failed or refused ops (each also a miss)
  uint64_t wrong = 0;       // wrong-valued reads or lost acknowledged writes
  std::vector<std::string> errors;     // first few failure descriptions
  std::vector<std::string> notes;      // human-readable lines (tables)
  std::map<std::string, std::string> env;  // pinned environment block

  void set_e2e(const std::string& n, double v, const char* unit) { e2e[n] = {v, unit}; }
  void set_layer(const std::string& n, double v, const char* unit) { layer[n] = {v, unit}; }
  void error(const std::string& what);
  bool correct() const { return wrong == 0 && failed == 0 && errors.empty(); }
};

// Fixed settings every workload runs with (printed in every env block).
inline constexpr double kLatencyScale = 1.0;
inline constexpr uint32_t kSsdQd = 16;
inline constexpr double kSloUs = 1000.0;  // p99 limit from intended send

// ---- measurement helpers ----------------------------------------------------

// Exact quantile of raw samples (ns), returned in microseconds. Sorts `v`.
double quantile_us(std::vector<uint64_t>& v, double q);
double mean_us(const std::vector<uint64_t>& v);
double median(std::vector<double> v);

struct ProcSample {
  uint64_t syscalls = 0;  // syscr + syscw from /proc/self/io
  double cpu_s = 0;       // user + system, whole process
  static ProcSample now();
};
double rss_peak_mb();

// ---- tagged values ------------------------------------------------------------
//
// Every value the benchmark writes starts with a tag naming its key and
// version (and the request that wrote it, for span linkage) and ends the
// header with a CRC32C over the whole value, so a read can prove it got
// exactly the bytes of a version of the key it asked for.

struct ValueTag {
  uint64_t key = 0;
  uint64_t version = 0;
  uint64_t req = 0;
};
inline constexpr size_t kTagBytes = 32;

// Fill `buf[0..size)` deterministically from (seed, key, version).
void make_value(char* buf, size_t size, uint64_t seed, const ValueTag& tag);
// Decode and verify; false on short value, bad magic or CRC mismatch.
bool read_tag(const void* buf, size_t size, ValueTag* tag);

std::string key_name(uint64_t key);

// Seeded key chooser: YCSB scrambled zipfian or uniform over [0, items).
class KeyGen {
 public:
  KeyGen(uint64_t items, bool zipfian, uint64_t seed)
      : items_(items), rng_(seed), zipf_(zipfian ? items : 1), use_zipf_(zipfian) {}
  uint64_t next() { return use_zipf_ ? zipf_.next(rng_) : rng_.next() % items_; }
  double uniform01() { return rng_.next_double(); }

 private:
  uint64_t items_;
  dstore::Rng rng_;
  dstore::ScrambledZipfianGenerator zipf_;
  bool use_zipf_;
};

// ---- spans ---------------------------------------------------------------------
//
// The traced run records one root span per request plus child spans from
// the wrappers below. Spans go to per-thread buffers (no locks on the hot
// path after a thread's first span) and are written out once, at exit.

struct Span {
  uint32_t name = 0;  // index into SpanRecorder::names
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request id (0 = background work)
  uint64_t start = 0;   // now_ns() clock
  uint64_t end = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint32_t intern(const std::string& name);
  uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& s);
  // All spans recorded so far (merges the per-thread buffers).
  std::vector<Span> collect();
  const std::string& name_of(uint32_t n);
  // JSON lines: {"name","id","parent","req","start_ns","end_ns"}.
  bool write(const std::string& path);

 private:
  SpanRecorder() = default;
  struct Buf {
    std::vector<Span> spans;
  };
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buf>> bufs_;
  Buf* local();
};

// The request and span a thread is currently working for; wrappers parent
// their child spans to it.
struct TraceCtx {
  uint64_t req = 0;
  uint64_t span = 0;
};
TraceCtx& tl_ctx();
// Span id of request `req`'s root span: wrappers running on threads that
// only know the request (server loop, repl worker, follower) parent to it.
inline uint64_t root_span_id(uint64_t req) { return req | (1ull << 63); }

// Attribution of a set of requests: the mean client-observed time (the
// root spans' durations) and the mean self time of every non-root layer —
// a span's duration minus the part its children cover — over the
// requests' spans. The root's own time is what no layer accounts for;
// callers may add layers measured elsewhere (the store's histograms).
struct Attribution {
  double client_us = 0;
  std::map<std::string, double> self_us;  // by layer; never the root
};
Attribution attribute(const std::vector<Span>& spans, std::vector<uint64_t> reqs);
// "attribution <label>: client X us | layer Y | ... | unattributed Z
// (accounted P%)", where unattributed = client - sum of the listed layers.
std::string attribution_line(const std::string& label, const Attribution& a);

// ---- bench-side decorators ----------------------------------------------------

// Times every IO the store submits: the submission call itself
// (ssd.submit) and the emulated media time from its return to the
// completion deadline it reports (ssd.media). Everything else forwards.
class TimedDevice final : public dstore::ssd::BlockDevice {
 public:
  explicit TimedDevice(std::unique_ptr<dstore::ssd::BlockDevice> inner)
      : inner_(std::move(inner)) {}
  dstore::Status write(uint64_t b, size_t off, const void* d, size_t n) override {
    return inner_->write(b, off, d, n);
  }
  dstore::Status read(uint64_t b, size_t off, void* o, size_t n) const override {
    return inner_->read(b, off, o, n);
  }
  dstore::Status flush_cache() override { return inner_->flush_cache(); }
  dstore::Result<uint64_t> submit_io(const dstore::ssd::IoDesc& d) override;
  const dstore::ssd::DeviceConfig& config() const override { return inner_->config(); }
  const dstore::ssd::DeviceStats& stats() const override { return inner_->stats(); }
  void set_bandwidth_series(dstore::TimeSeries* ts) override { inner_->set_bandwidth_series(ts); }
  bool has_page_checksums() const override { return inner_->has_page_checksums(); }
  const void* direct_read_map(uint64_t b) const override { return inner_->direct_read_map(b); }
  dstore::Status verify_pages(uint64_t b, size_t off, size_t n,
                              std::vector<uint64_t>* bad) override {
    return inner_->verify_pages(b, off, n, bad);
  }

  // Totals since the last reset().
  uint64_t ios() const { return ios_.load(std::memory_order_relaxed); }
  uint64_t submit_ns() const { return submit_ns_.load(std::memory_order_relaxed); }
  uint64_t media_ns() const { return media_ns_.load(std::memory_order_relaxed); }
  void reset() { ios_ = 0, submit_ns_ = 0, media_ns_ = 0; }

 private:
  std::unique_ptr<dstore::ssd::BlockDevice> inner_;
  std::atomic<uint64_t> ios_{0}, submit_ns_{0}, media_ns_{0};
};

// Wraps a repl::Node's ReplHandler face: times the quorum wait of every
// client write (await_ticket, linked to its request through the ticket the
// loop thread claimed right after the store op) and the follower's
// handle_append (linked through the value tag the entry carries).
class TimedReplHandler final : public dstore::net::ReplHandler {
 public:
  explicit TimedReplHandler(dstore::net::ReplHandler* inner) : inner_(inner) {}
  dstore::net::ReplAck handle_append(const dstore::net::ReplEntryWire& e) override;
  dstore::net::ReplSubscribeResult handle_subscribe(const dstore::net::ReplHello& h) override {
    return inner_->handle_subscribe(h);
  }
  std::string handle_snap_pull(const dstore::net::ReplHello& h) override {
    return inner_->handle_snap_pull(h);
  }
  dstore::net::ReplAck handle_heartbeat(const dstore::net::Heartbeat& hb) override {
    return inner_->handle_heartbeat(hb);
  }
  dstore::net::PromoteResp handle_promote(const dstore::net::PromoteReq& p) override {
    return inner_->handle_promote(p);
  }
  bool writable() override { return inner_->writable(); }
  dstore::Status finish_write() override { return await_ticket(write_ticket()); }
  uint64_t write_ticket() override;
  dstore::Status await_ticket(uint64_t ticket) override;

  // Raw quorum-wait and apply durations (ns) since the last reset().
  std::vector<uint64_t> take_waits();
  std::vector<uint64_t> take_applies();
  uint64_t appends() const { return appends_.load(); }
  uint64_t rejected() const { return rejected_.load(); }
  void reset();
  // Self-test: the next await_ticket sleeps `ns` first (an injected stall).
  void stall_next(uint64_t ns) { stall_ns_.store(ns); }

 private:
  dstore::net::ReplHandler* inner_;
  std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> ticket_req_;
  std::vector<uint64_t> waits_, applies_;
  std::atomic<uint64_t> appends_{0}, rejected_{0};
  std::atomic<uint64_t> stall_ns_{0};
};

// Wraps the primary's ReplSink: times prepare+commit inside the store op
// (span repl.sink) and hands the written value's request id to the loop
// thread for TimedReplHandler::write_ticket.
class TimedReplSink final : public dstore::ReplSink {
 public:
  explicit TimedReplSink(dstore::ReplSink* inner) : inner_(inner) {}
  uint64_t prepare(Mutation m) override;
  void commit(uint64_t ticket) override;
  void abort(uint64_t ticket) override { inner_->abort(ticket); }
  uint64_t total_ns() const { return ns_.load(); }
  uint64_t calls() const { return calls_.load(); }
  void reset() { ns_ = 0, calls_ = 0; }

 private:
  dstore::ReplSink* inner_;
  std::atomic<uint64_t> ns_{0}, calls_{0};
};

// Request id of the value most recently handed to a TimedReplSink on this
// thread (0 = none).
uint64_t& tl_sink_req();

// ---- workloads ----------------------------------------------------------------

void run_store_ycsb_a(const Options& o, Report* r);
enum class Served { kYcsbB, kReplA };
void run_served(const Options& o, Served kind, Report* r);

// Generator self-test (tests/gen_selftest.cc): one open-loop put step
// against the replicated fleet with a single injected quorum-wait stall.
// Returns every put's (intended send, latency) so the test can check that
// requests scheduled during the stall report it.
struct StallProbe {
  uint64_t stall_ns = 0;
  double rate = 0;
  double seconds = 0;
  std::vector<std::pair<uint64_t, uint64_t>> puts;  // (intended ns, latency ns)
  uint64_t stall_at = 0;  // when the stall was armed (now_ns clock)
  double late_p99_us = 0;
  bool ok = false;
};
void run_stall_probe(StallProbe* p);

}  // namespace perfbench
