// store-ycsb-a: the embedded paper configuration. One DStore on a
// bench-owned PMEM pool and RAM device (wrapped in TimedDevice), 16384 log
// slots, closed-loop application threads each with its own ds_ctx_t,
// YCSB-A (50% get / 50% update), scrambled zipfian 0.99 over 20k preloaded
// 4 KB values, background DIPPER checkpointing on.
//
// The timed window has two closed-loop steps: `nominal` (2 threads, the
// paper configuration; every headline metric) and `high` (3 threads; the
// .high tails and the step that max_rate_at_slo_ops may pick). After it, a
// recovery probe measures a deterministic-length log replay and checks
// every acknowledged key against the bench oracle.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "dstore/dstore.h"
#include "pmem/pool.h"

namespace perfbench {

using namespace dstore;

namespace {

constexpr uint64_t kKeys = 20000;
constexpr size_t kValueBytes = 4096;
constexpr int kNominalThreads = 2;
constexpr int kHighThreads = 3;
constexpr int kSetups = 5;
constexpr int kRecoveryProbes = 3;
// The traced run records the spans of one request in this many.
constexpr uint64_t kSpanSampleEvery = 16;
constexpr uint64_t kMinCheckpoints = 10;

struct Store {
  std::unique_ptr<pmem::Pool> pool;
  ssd::RamBlockDevice* media = nullptr;  // owned by `dev`
  std::unique_ptr<TimedDevice> dev;
  std::unique_ptr<DStore> store;
  DStoreConfig cfg;
};

DStoreConfig store_config() {
  DStoreConfig c;
  c.max_objects = 32768;
  c.num_blocks = 49152;
  c.ssd_qd = kSsdQd;
  c.early_ack = false;
  c.engine.log_slots = 16384;
  c.engine.background_checkpointing = true;
  c.engine.nt_stores = false;
  c.engine.arena_bytes = DStoreConfig::suggested_arena_bytes(c.max_objects);
  return c;
}

// Oracle. Every thread updates the whole zipfian key set, so a key can
// have several writers at once, and their puts may take effect in either
// order. A version is (per-key counter << kWriterBits) | writer, and each
// writer's puts are sequential. A get that starts at time g may return any
// issued version v of its key that is not certainly overwritten by g. It
// is, if v's writer acknowledged a later version before g, or if some put
// that started after v was acknowledged was itself acknowledged before g.
// Writer 0 is the preload and the single-threaded recovery probe; the
// closed-loop threads are writers 1..3.
constexpr uint64_t kWriterBits = 3;
constexpr size_t kWriters = size_t{1} << kWriterBits;

struct Oracle {
  struct Last {
    uint64_t version = 0, ack_ns = 0;
  };
  // What a get may compare its result against: taken before it starts.
  struct Snapshot {
    Last last[kWriters];
    uint64_t acked_start_max = 0;
  };
  struct Key {
    std::mutex mu;
    uint64_t issued = 0;           // per-key counter of the last version handed out
    uint64_t acked_start_max = 0;  // latest start of an acknowledged put
    Last last[kWriters];           // each writer's last acknowledged version
    uint64_t exact = 0;            // the one valid version while the store is quiet
  };
  std::vector<Key> keys;
  Oracle() : keys(kKeys) {}

  void reset() {
    for (Key& k : keys) {
      std::lock_guard<std::mutex> g(k.mu);
      k.issued = 0, k.acked_start_max = 0, k.exact = 0;
      for (Last& l : k.last) l = {};
    }
  }
  uint64_t issue(uint64_t key, uint64_t writer) {
    Key& k = keys[key];
    std::lock_guard<std::mutex> g(k.mu);
    return (++k.issued << kWriterBits) | writer;
  }
  // A put of `version` that started at `start_ns` returned OK at `ack_ns`.
  void ack(uint64_t key, uint64_t version, uint64_t start_ns, uint64_t ack_ns) {
    Key& k = keys[key];
    std::lock_guard<std::mutex> g(k.mu);
    k.last[version & (kWriters - 1)] = {version, ack_ns};
    k.acked_start_max = std::max(k.acked_start_max, start_ns);
    k.exact = version;
  }
  Snapshot snapshot(uint64_t key) {
    Key& k = keys[key];
    std::lock_guard<std::mutex> g(k.mu);
    Snapshot s;
    std::copy(std::begin(k.last), std::end(k.last), std::begin(s.last));
    s.acked_start_max = k.acked_start_max;
    return s;
  }
  // Whether a get that took `snap` before it started may return `version`.
  bool valid(uint64_t key, const Snapshot& snap, uint64_t version) {
    uint64_t issued;
    {
      Key& k = keys[key];
      std::lock_guard<std::mutex> g(k.mu);
      issued = k.issued;
    }
    const Last& l = snap.last[version & (kWriters - 1)];
    if ((version >> kWriterBits) > issued) return false;  // never written
    if (l.version > version) return false;  // its writer had acknowledged a later one
    return !(l.version == version && l.ack_ns < snap.acked_start_max);
  }
  // The store is quiet and holds `version`, which was valid: it becomes
  // the one version a read may return until the next put.
  void settle(uint64_t key, uint64_t version) {
    Key& k = keys[key];
    std::lock_guard<std::mutex> g(k.mu);
    uint64_t now = now_ns();
    for (Last& l : k.last) l = {};
    k.last[version & (kWriters - 1)] = {version, now};
    k.acked_start_max = now;
    k.exact = version;
  }
};

// A checkpoint of everything logged so far; waits out a background
// checkpoint that is already running.
Status checkpoint(DStore& s) {
  for (int i = 0;; i++) {
    Status st = s.checkpoint_now();
    if (!st.is_busy() || i == 10000) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status put_version(DStore& s, ds_ctx_t* ctx, uint64_t key, uint64_t version, uint64_t seed,
                   uint64_t req, char* buf) {
  make_value(buf, kValueBytes, seed, {key, version, req});
  return s.oput(ctx, key_name(key), buf, kValueBytes);
}

Result<std::unique_ptr<Store>> build_store(uint64_t seed, Oracle* oracle) {
  auto st = std::make_unique<Store>();
  st->cfg = store_config();
  LatencyModel lat = LatencyModel::calibrated(kLatencyScale);
  st->pool = std::make_unique<pmem::Pool>(DStoreConfig::required_pool_bytes(st->cfg),
                                          pmem::Pool::Mode::kDirect, lat);
  ssd::DeviceConfig dc;
  dc.num_blocks = st->cfg.num_blocks;
  dc.latency = lat;
  dc.power_loss_protection = true;
  auto media = std::make_unique<ssd::RamBlockDevice>(dc);
  st->media = media.get();
  st->dev = std::make_unique<TimedDevice>(std::move(media));
  auto s = DStore::create(st->pool.get(), st->dev.get(), st->cfg);
  if (!s.is_ok()) return s.status();
  st->store = std::move(s).value();
  // Preload version 0 of every key, two loader threads.
  std::vector<std::thread> th;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 2; t++) {
    th.emplace_back([&, t] {
      ds_ctx_t* ctx = st->store->ds_init();
      std::vector<char> buf(kValueBytes);
      for (uint64_t k = (uint64_t)t; k < kKeys; k += 2) {
        if (!put_version(*st->store, ctx, k, 0, seed, 0, buf.data()).is_ok()) ok = false;
      }
      st->store->ds_finalize(ctx);
    });
  }
  for (auto& t : th) t.join();
  if (!ok) return Status::io_error("preload failed");
  DSTORE_RETURN_IF_ERROR(checkpoint(*st->store));
  oracle->reset();  // version 0 of every key, acknowledged before anything else
  return st;
}

// One closed-loop step's raw observations.
constexpr size_t kSlices = 8;

struct StepResult {
  std::vector<uint64_t> get_ns, put_ns;  // the whole step
  // The same samples by time slice of the step, and ops completed per slice.
  std::vector<uint64_t> get_sl[kSlices], put_sl[kSlices];
  uint64_t ops_sl[kSlices] = {};
  uint64_t ops = 0;
  uint64_t fences = 0, flushes = 0, nt_lines = 0;  // summed over puts (op thread)
  uint64_t stall_ns_max = 0;                       // longest gap between completions
  double seconds = 0;
  double log_fill_max = 0;

  // Robust figures: the median over the slices of each slice's value.
  double sliced_p50_us(bool put) {
    std::vector<double> v;
    for (auto& sl : put ? put_sl : get_sl) {
      if (!sl.empty()) v.push_back(quantile_us(sl, 0.5));
    }
    return median(v);
  }
  double sliced_ops_per_s() const {
    std::vector<double> v;
    for (uint64_t n : ops_sl) v.push_back((double)n * kSlices / seconds);
    return median(v);
  }
};

void run_step(Store& st, Oracle& o, const Options& opt, int threads, double seconds,
              uint64_t step_seed, bool traced, Report* r, StepResult* out) {
  SpanRecorder& rec = SpanRecorder::get();
  rec.enable(traced);
  const uint32_t n_put = rec.intern("dstore.put"), n_get = rec.intern("dstore.get");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> last_done{now_ns()};
  std::vector<StepResult> per(threads);
  std::vector<std::vector<std::string>> errs(threads);
  std::vector<uint64_t> wrong(threads, 0), failed(threads, 0);
  std::thread sampler([&] {
    while (!stop.load()) {
      out->log_fill_max =
          std::max(out->log_fill_max, st.store->metrics().value("dipper_log_fill_ratio"));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  uint64_t t_start = now_ns();
  uint64_t deadline = t_start + (uint64_t)(seconds * 1e9);
  auto slice = [&](uint64_t ts) {
    return (size_t)std::min<uint64_t>(kSlices - 1, (ts - t_start) * kSlices / (deadline - t_start));
  };
  std::vector<std::thread> th;
  for (int t = 0; t < threads; t++) {
    th.emplace_back([&, t] {
      StepResult& me = per[t];
      const uint64_t writer = (uint64_t)t + 1;
      ds_ctx_t* ctx = st.store->ds_init();
      KeyGen gen(kKeys, /*zipfian=*/true, step_seed * 1000003 + (uint64_t)t);
      std::vector<char> wbuf(kValueBytes), rbuf(kValueBytes);
      uint64_t req_base = ((step_seed & 0xffff) << 40) | ((uint64_t)t << 32);
      uint64_t n = 0;
      while (true) {
        uint64_t now = now_ns();
        if (now >= deadline) break;
        uint64_t key = gen.next();
        bool is_get = gen.uniform01() < 0.5;
        uint64_t req = req_base + (++n);
        // Sampled before the op runs, so the traced requests are unbiased.
        bool span = traced && n % kSpanSampleEvery == 0;
        if (span) tl_ctx() = {req, root_span_id(req)};
        uint64_t t1;
        if (is_get) {
          Oracle::Snapshot snap = o.snapshot(key);
          t1 = now_ns();
          auto got = st.store->oget(ctx, key_name(key), rbuf.data(), rbuf.size());
          uint64_t t2 = now_ns();
          ValueTag tag;
          if (!got.is_ok()) {
            failed[t]++;
            if (errs[t].size() < 4) errs[t].push_back("get " + key_name(key) + ": " +
                                                      got.status().to_string());
          } else if (got.value() != kValueBytes || !read_tag(rbuf.data(), got.value(), &tag) ||
                     tag.key != key || !o.valid(key, snap, tag.version)) {
            wrong[t]++;
            if (errs[t].size() < 4) errs[t].push_back("wrong value for " + key_name(key));
          }
          me.get_sl[slice(t1)].push_back(t2 - t1);
          if (span) rec.record({n_get, root_span_id(req), 0, req, t1, t2});
        } else {
          uint64_t v = o.issue(key, writer);
          make_value(wbuf.data(), kValueBytes, opt.seed, {key, v, req});
          auto c0 = st.pool->thread_io_counts();
          t1 = now_ns();
          Status s = st.store->oput(ctx, key_name(key), wbuf.data(), kValueBytes);
          uint64_t t2 = now_ns();
          auto c1 = st.pool->thread_io_counts();
          me.fences += c1.fences - c0.fences;
          me.flushes += c1.flushes - c0.flushes;
          me.nt_lines += c1.nt_lines - c0.nt_lines;
          if (s.is_ok()) {
            o.ack(key, v, t1, t2);
          } else {
            failed[t]++;
            if (errs[t].size() < 4) errs[t].push_back("put " + key_name(key) + ": " + s.to_string());
          }
          me.put_sl[slice(t1)].push_back(t2 - t1);
          if (span) rec.record({n_put, root_span_id(req), 0, req, t1, t2});
        }
        if (span) tl_ctx() = {};
        uint64_t t3 = now_ns();
        me.ops++;
        me.ops_sl[slice(t1)]++;
        uint64_t prev = last_done.exchange(t3, std::memory_order_relaxed);
        if (t3 > prev) me.stall_ns_max = std::max(me.stall_ns_max, t3 - prev);
      }
      st.store->ds_finalize(ctx);
    });
  }
  for (auto& t : th) t.join();
  out->seconds = seconds;
  stop = true;
  sampler.join();
  rec.enable(false);
  for (int t = 0; t < threads; t++) {
    StepResult& p = per[t];
    for (size_t i = 0; i < kSlices; i++) {
      out->get_sl[i].insert(out->get_sl[i].end(), p.get_sl[i].begin(), p.get_sl[i].end());
      out->put_sl[i].insert(out->put_sl[i].end(), p.put_sl[i].begin(), p.put_sl[i].end());
      out->get_ns.insert(out->get_ns.end(), p.get_sl[i].begin(), p.get_sl[i].end());
      out->put_ns.insert(out->put_ns.end(), p.put_sl[i].begin(), p.put_sl[i].end());
      out->ops_sl[i] += p.ops_sl[i];
    }
    out->ops += p.ops;
    out->fences += p.fences;
    out->flushes += p.flushes;
    out->nt_lines += p.nt_lines;
    out->stall_ns_max = std::max(out->stall_ns_max, p.stall_ns_max);
    r->wrong += wrong[t];
    r->failed += failed[t];
    for (auto& e : errs[t]) r->error(e);
  }
  r->attempted += out->ops;
}

// Checkpoint, a seed-determined number of puts on a quiet store, a kill of
// all DRAM state, DStore::recover, then an exact oracle check of every key.
struct Recovery {
  double wall_ms = 0, metadata_ms = 0, replay_ms = 0;
  uint64_t replayed = 0;
};

Status recovery_probe(Store& st, Oracle& o, const Options& opt, int probe, Report* r,
                      Recovery* out) {
  DSTORE_RETURN_IF_ERROR(checkpoint(*st.store));
  Rng rng(opt.seed * 7919 + (uint64_t)probe);
  uint64_t puts = 2000 + opt.seed % 1000;
  ds_ctx_t* ctx = st.store->ds_init();
  std::vector<char> buf(kValueBytes);
  for (uint64_t i = 0; i < puts; i++) {
    uint64_t key = rng.next() % kKeys;
    uint64_t v = o.issue(key, 0);
    uint64_t t0 = now_ns();
    Status s = put_version(*st.store, ctx, key, v, opt.seed, 0, buf.data());
    if (!s.is_ok()) {
      st.store->ds_finalize(ctx);
      return s;
    }
    o.ack(key, v, t0, now_ns());
  }
  st.store->ds_finalize(ctx);
  // The kill: as DStoreAdapter::crash_and_recover does it.
  st.store->engine().stop_background();
  st.store.reset();
  st.media->crash();
  uint64_t t0 = now_ns();
  auto rec = DStore::recover(st.pool.get(), st.dev.get(), st.cfg);
  uint64_t t1 = now_ns();
  if (!rec.is_ok()) return rec.status();
  st.store = std::move(rec).value();
  const dipper::EngineStats& es = st.store->engine().stats();
  out->wall_ms = (double)(t1 - t0) / 1e6;
  out->metadata_ms = (double)es.recovery_metadata_ns.load() / 1e6;
  out->replay_ms = (double)es.recovery_replay_ns.load() / 1e6;
  out->replayed = es.records_replayed.load();
  // Every acknowledged write must have survived, byte-exact.
  ctx = st.store->ds_init();
  for (uint64_t k = 0; k < kKeys; k++) {
    auto got = st.store->oget(ctx, key_name(k), buf.data(), buf.size());
    ValueTag tag;
    if (!got.is_ok() || got.value() != kValueBytes || !read_tag(buf.data(), kValueBytes, &tag) ||
        tag.key != k || tag.version != o.keys[k].exact) {
      r->wrong++;
      r->error("after recovery: " + key_name(k) + " does not hold its last acknowledged value");
    }
  }
  st.store->ds_finalize(ctx);
  return Status::ok();
}

// Once the closed-loop threads have stopped, concurrent puts may have left
// either of their versions in a key. Read every key on the quiet store,
// check that it holds a valid version, and make that the exact expectation.
void settle(Store& st, Oracle& o, Report* r) {
  ds_ctx_t* ctx = st.store->ds_init();
  std::vector<char> buf(kValueBytes);
  for (uint64_t k = 0; k < kKeys; k++) {
    Oracle::Snapshot snap = o.snapshot(k);
    auto got = st.store->oget(ctx, key_name(k), buf.data(), buf.size());
    ValueTag tag;
    if (!got.is_ok() || got.value() != kValueBytes || !read_tag(buf.data(), kValueBytes, &tag) ||
        tag.key != k || !o.valid(k, snap, tag.version)) {
      r->wrong++;
      r->error("after the window: " + key_name(k) + " does not hold a valid version");
      continue;
    }
    o.settle(k, tag.version);
  }
  st.store->ds_finalize(ctx);
  r->attempted += kKeys;
}

// Recovery probes: median times over several (reported when `report`).
void run_recovery_probes(Store& st, Oracle& oracle, const Options& opt, Report* r,
                         bool report) {
  settle(st, oracle, r);
  if (!r->correct()) return;
  std::vector<double> wall, meta, replay;
  for (int i = 0; i < kRecoveryProbes; i++) {
    Recovery rc;
    Status ps = recovery_probe(st, oracle, opt, i, r, &rc);
    if (!ps.is_ok()) {
      r->error("recovery probe: " + ps.to_string());
      return;
    }
    wall.push_back(rc.wall_ms), meta.push_back(rc.metadata_ms), replay.push_back(rc.replay_ms);
  }
  r->attempted += kKeys * kRecoveryProbes;
  if (report) {
    r->set_layer("dipper.recovery_ms", median(wall), "ms");
    r->set_layer("dipper.recovery_metadata_ms", median(meta), "ms");
    r->set_layer("dipper.recovery_replay_ms", median(replay), "ms");
  }
}


// Mean time per sampled put (us) in one OpTrace stage: the stage's total
// over the number of sampled puts, so the stages of a put add up.
double stage_per_put_us(DStore& s, const char* stage) {
  const obs::Histogram* h = s.metrics().find_histogram(std::string("dstore_stage_") + stage + "_ns");
  const obs::Histogram* puts = s.metrics().find_histogram("dstore_put_latency_ns");
  if (h == nullptr || puts == nullptr || puts->count() == 0) return 0;
  return (double)h->sum() / (double)puts->count() / 1e3;
}

}  // namespace

void run_store_ycsb_a(const Options& opt, Report* r) {
  Oracle oracle;
  std::unique_ptr<Store> st;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    st.reset();  // free the previous instance before timing the next
    uint64_t t0 = now_ns();
    auto b = build_store(opt.seed, &oracle);
    if (!b.is_ok()) {
      r->error("setup: " + b.status().to_string());
      return;
    }
    st = std::move(b).value();
    setups.push_back((double)(now_ns() - t0) / 1e9);
  }
  r->set_e2e("setup_s", median(setups), "s");

  DStore& s = *st->store;
  const dipper::EngineStats& es = s.engine().stats();
  const ssd::DeviceStats& ds = st->dev->stats();
  double seconds = opt.seconds;

  // The measured window: both closed-loop steps, untraced.
  StepResult nom, high;
  uint64_t ck0 = es.checkpoints.load();
  run_step(*st, oracle, opt, kNominalThreads, seconds * 0.7, opt.seed * 2, false, r, &nom);
  uint64_t cycles = es.checkpoints.load() - ck0;
  run_step(*st, oracle, opt, kHighThreads, seconds * 0.3, opt.seed * 2 + 1, false, r, &high);
  double nom_tput = nom.sliced_ops_per_s();
  r->set_e2e("throughput_ops", nom_tput, "ops/s");
  r->set_e2e("get_p50_us", nom.sliced_p50_us(false), "us");
  r->set_e2e("put_p50_us", nom.sliced_p50_us(true), "us");
  r->set_layer("client.get_p99_us", quantile_us(nom.get_ns, 0.99), "us");
  r->set_layer("client.put_p99_us", quantile_us(nom.put_ns, 0.99), "us");
  r->set_layer("client.get_p50_us.high", quantile_us(high.get_ns, 0.50), "us");
  r->set_layer("client.put_p50_us.high", quantile_us(high.put_ns, 0.50), "us");
  r->set_layer("client.get_p99_us.high", quantile_us(high.get_ns, 0.99), "us");
  r->set_layer("client.put_p99_us.high", quantile_us(high.put_ns, 0.99), "us");
  // The closed loop's two steps are its sweep: the best throughput whose
  // get and put p99 both meet the limit.
  double best = 0;
  for (StepResult* p : {&nom, &high}) {
    if (quantile_us(p->get_ns, 0.99) <= kSloUs && quantile_us(p->put_ns, 0.99) <= kSloUs)
      best = std::max(best, (double)p->ops / p->seconds);
  }
  r->set_layer("client.max_rate_at_slo_ops", best, "ops/s");
  char line[256];
  snprintf(line, sizeof(line), "checkpoint cycles in the nominal window: %llu (need >= %llu)",
           (unsigned long long)cycles, (unsigned long long)kMinCheckpoints);
  r->notes.push_back(line);
  if (cycles < kMinCheckpoints) r->error(line);
  // Space in a settled state: right after a checkpoint.
  if (Status cs = checkpoint(s); !cs.is_ok()) r->error("checkpoint: " + cs.to_string());
  DStore::SpaceUsage u = s.space_usage();
  snprintf(line, sizeof(line), "space in use: dram %llu pmem %llu ssd %llu bytes",
           (unsigned long long)u.dram_bytes, (unsigned long long)u.pmem_bytes,
           (unsigned long long)u.ssd_bytes);
  r->notes.push_back(line);
  r->set_e2e("space_amp",
             (double)(u.dram_bytes + u.pmem_bytes + u.ssd_bytes) / ((double)kKeys * kValueBytes),
             "x");
  if (!opt.trace) {
    run_recovery_probes(*st, oracle, opt, r, false);
    return;
  }

  // Traced pass: the nominal step again, with spans, on the same store.
  StepResult tr;
  s.metrics().reset();
  st->dev->reset();
  uint64_t bp0 = es.append_backpressure_waits.load();
  uint64_t ckns0 = es.ckpt_total_ns.load(), app0 = es.records_appended.load();
  uint64_t wr0 = ds.bytes_written.load();
  obs::Counter* retries = s.metrics().find_counter("ssd_io_retries_total");
  uint64_t retr0 = retries != nullptr ? retries->value() : 0;
  ck0 = es.checkpoints.load();
  ProcSample p0 = ProcSample::now();
  run_step(*st, oracle, opt, kNominalThreads, seconds * 0.5, opt.seed * 2 + 2, true, r, &tr);

  // ---- per-layer metrics (traced run) ----
  ProcSample p1 = ProcSample::now();
  double ops = (double)tr.ops;
  double puts = (double)tr.put_ns.size();
  double put_us = mean_us(tr.put_ns), get_us = mean_us(tr.get_ns);
  r->set_layer("dstore.put_us", put_us, "us");
  r->set_layer("dstore.get_us", get_us, "us");
  r->set_layer("dstore.put_p999_us", quantile_us(tr.put_ns, 0.999), "us");
  r->set_layer("dstore.get_p999_us", quantile_us(tr.get_ns, 0.999), "us");
  r->set_layer("dstore.put_max_us", quantile_us(tr.put_ns, 1.0), "us");
  double staged = 0;
  std::map<std::string, double> stage_us;
  for (const char* stage :
       {"log_append", "pool_alloc", "meta_zone", "btree", "ssd_batch", "commit_flush"}) {
    double v = stage_per_put_us(s, stage);
    staged += v;
    stage_us[stage] = v;
    r->set_layer(std::string("dstore.stage.") + stage + "_us", v, "us");
  }
  r->set_layer("dstore.unattributed_us", put_us - staged, "us");
  uint64_t cks = es.checkpoints.load() - ck0;
  r->set_layer("dipper.checkpoints", (double)cks, "count");
  r->set_layer("dipper.ckpt_ms", cks ? (double)(es.ckpt_total_ns.load() - ckns0) / cks / 1e6 : 0,
               "ms");
  r->set_layer("dipper.backpressure_waits", (double)(es.append_backpressure_waits.load() - bp0),
               "count");
  r->set_layer("dipper.log_fill_max", tr.log_fill_max, "ratio");
  r->set_layer("dipper.stall_ms_max", (double)tr.stall_ns_max / 1e6, "ms");
  r->set_layer("dipper.records_per_put", (double)(es.records_appended.load() - app0) / puts,
               "count");
  r->set_layer("pmem.fences_per_put", (double)tr.fences / puts, "count");
  r->set_layer("pmem.flushes_per_put", (double)tr.flushes / puts, "count");
  r->set_layer("pmem.bytes_flushed_per_put", (double)(tr.flushes + tr.nt_lines) * 64 / puts,
               "B");
  r->set_layer("ssd.ios_per_op", (double)st->dev->ios() / ops, "count");
  r->set_layer("ssd.write_amp", (double)(ds.bytes_written.load() - wr0) / (puts * kValueBytes),
               "x");
  r->set_layer("ssd.media_us_per_op", (double)st->dev->media_ns() / ops / 1e3, "us");
  r->set_layer("ssd.submit_us",
               st->dev->ios() ? (double)st->dev->submit_ns() / (double)st->dev->ios() / 1e3 : 0,
               "us");
  r->set_layer("ssd.retries", retries != nullptr ? (double)(retries->value() - retr0) : 0,
               "count");
  r->set_layer("proc.cpu_us_per_op", (p1.cpu_s - p0.cpu_s) / ops * 1e6, "us");
  r->set_layer("proc.syscalls_per_op", (double)(p1.syscalls - p0.syscalls) / ops, "count");
  double tr_tput = tr.sliced_ops_per_s();
  r->set_layer("trace.overhead_pct", (nom_tput - tr_tput) / nom_tput * 100.0, "%");

  // Attribution: layer self time per request type against the client mean
  // (the bench span around oput/oget). The device spans come from
  // TimedDevice; a put's OpTrace stages come from the store's histograms,
  // and its ssd_batch stage holds the device spans, so that stage counts
  // only what the device spans leave. Gets have no OpTrace stages.
  std::vector<Span> spans = SpanRecorder::get().collect();
  for (const char* op : {"put", "get"}) {
    uint32_t root = SpanRecorder::get().intern(std::string("dstore.") + op);
    std::vector<uint64_t> reqs;
    for (const Span& sp : spans) {
      if (sp.name == root) reqs.push_back(sp.req);
    }
    Attribution a = attribute(spans, reqs);
    if (std::string(op) == "put") {
      double device = a.self_us["ssd.submit"] + a.self_us["ssd.media"];
      for (const auto& [stage, us] : stage_us) {
        a.self_us["dstore.stage." + stage] =
            stage == "ssd_batch" ? std::max(0.0, us - device) : us;
      }
    }
    r->notes.push_back(attribution_line(std::string("store-ycsb-a ") + op, a));
  }
  snprintf(line, sizeof(line),
           "dstore put stages (OpTrace, 1-in-16 sampled): %.2f us of %.2f us (unattributed %.2f)",
           staged, put_us, put_us - staged);
  r->notes.push_back(line);
  run_recovery_probes(*st, oracle, opt, r, true);
}

}  // namespace perfbench
