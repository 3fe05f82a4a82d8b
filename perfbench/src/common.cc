#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/crc32c.h"

namespace perfbench {

using namespace dstore;

void Report::error(const std::string& what) {
  if (errors.size() < 8) errors.push_back(what);
}

double quantile_us(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  size_t k = std::min(v.size() - 1, (size_t)(q * (double)v.size()));
  std::nth_element(v.begin(), v.begin() + (long)k, v.end());
  return (double)v[k] / 1e3;
}

double mean_us(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0;
  long double s = 0;
  for (uint64_t x : v) s += x;
  return (double)(s / v.size() / 1e3);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

ProcSample ProcSample::now() {
  ProcSample p;
  std::ifstream io("/proc/self/io");
  std::string k;
  uint64_t v;
  while (io >> k >> v) {
    if (k == "syscr:" || k == "syscw:") p.syscalls += v;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  p.cpu_s = (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec / 1e6 +
            (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec / 1e6;
  return p;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- tagged values --------------------------------------------------------------
//
// Layout: u32 magic, u32 crc, u64 key, u64 version, u64 req, filler. The CRC
// covers every byte after itself.

namespace {
constexpr uint32_t kValueMagic = 0x56424e50;  // "PNBV"

uint32_t value_crc(const char* buf, size_t size) {
  return crc32c_extend(0xffffffffu, buf + 8, size - 8) ^ 0xffffffffu;
}
}  // namespace

void make_value(char* buf, size_t size, uint64_t seed, const ValueTag& tag) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull ^ tag.key * 0xbf58476d1ce4e5b9ull ^ tag.version;
  for (size_t i = kTagBytes; i < size; i += 8) {
    x ^= x >> 12, x ^= x << 25, x ^= x >> 27;
    uint64_t w = x * 0x2545f4914f6cdd1dull;
    std::memcpy(buf + i, &w, std::min<size_t>(8, size - i));
  }
  std::memcpy(buf, &kValueMagic, 4);
  std::memcpy(buf + 8, &tag.key, 8);
  std::memcpy(buf + 16, &tag.version, 8);
  std::memcpy(buf + 24, &tag.req, 8);
  uint32_t crc = value_crc(buf, size);
  std::memcpy(buf + 4, &crc, 4);
}

bool read_tag(const void* p, size_t size, ValueTag* tag) {
  const char* buf = (const char*)p;
  if (size < kTagBytes) return false;
  uint32_t magic, crc;
  std::memcpy(&magic, buf, 4);
  std::memcpy(&crc, buf + 4, 4);
  if (magic != kValueMagic || crc != value_crc(buf, size)) return false;
  std::memcpy(&tag->key, buf + 8, 8);
  std::memcpy(&tag->version, buf + 16, 8);
  std::memcpy(&tag->req, buf + 24, 8);
  return true;
}

std::string key_name(uint64_t key) {
  char b[24];
  snprintf(b, sizeof(b), "user%010llu", (unsigned long long)key);
  return b;
}

// ---- spans ----------------------------------------------------------------------

SpanRecorder& SpanRecorder::get() {
  static SpanRecorder r;
  return r;
}

uint32_t SpanRecorder::intern(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  for (size_t i = 0; i < names_.size(); i++) {
    if (names_[i] == name) return (uint32_t)i;
  }
  names_.push_back(name);
  return (uint32_t)names_.size() - 1;
}

const std::string& SpanRecorder::name_of(uint32_t n) {
  std::lock_guard<std::mutex> g(mu_);
  return names_.at(n);
}

SpanRecorder::Buf* SpanRecorder::local() {
  thread_local Buf* b = nullptr;
  if (b == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    bufs_.push_back(std::make_unique<Buf>());
    b = bufs_.back().get();
    b->spans.reserve(1 << 16);
  }
  return b;
}

void SpanRecorder::record(const Span& s) {
  if (on()) local()->spans.push_back(s);
}

std::vector<Span> SpanRecorder::collect() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Span> all;
  for (auto& b : bufs_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

bool SpanRecorder::write(const std::string& path) {
  std::vector<Span> all = collect();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : all) {
    fprintf(f,
            "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"start_ns\":%llu,"
            "\"end_ns\":%llu}\n",
            name_of(s.name).c_str(), (unsigned long long)s.id, (unsigned long long)s.parent,
            (unsigned long long)s.req, (unsigned long long)s.start, (unsigned long long)s.end);
  }
  return fclose(f) == 0;
}

TraceCtx& tl_ctx() {
  thread_local TraceCtx c;
  return c;
}

uint64_t& tl_sink_req() {
  thread_local uint64_t r = 0;
  return r;
}

Attribution attribute(const std::vector<Span>& spans, std::vector<uint64_t> reqs) {
  std::sort(reqs.begin(), reqs.end());
  auto wanted = [&](uint64_t req) { return std::binary_search(reqs.begin(), reqs.end(), req); };
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (wanted(s.req)) by_id[s.id] = &s;
  }
  // Children of each span, as intervals clipped to the parent.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
  for (const auto& [id, s] : by_id) {
    auto it = by_id.find(s->parent);
    if (s->parent == 0 || it == by_id.end()) continue;
    uint64_t a = std::max(s->start, it->second->start), b = std::min(s->end, it->second->end);
    if (b > a) kids[s->parent].push_back({a, b});
  }
  Attribution out;
  double n = (double)std::max<size_t>(1, reqs.size());
  SpanRecorder& rec = SpanRecorder::get();
  for (const auto& [id, s] : by_id) {
    uint64_t covered = 0;
    auto it = kids.find(id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cs = iv[0].first, ce = iv[0].first;
      for (auto [a, b] : iv) {
        if (a > ce) covered += ce - cs, cs = a;
        ce = std::max(ce, b);
      }
      covered += ce - cs;
    }
    uint64_t dur = s->end > s->start ? s->end - s->start : 0;
    if (id == root_span_id(s->req)) {
      out.client_us += (double)dur / n / 1e3;  // the root's own time stays unattributed
    } else {
      out.self_us[rec.name_of(s->name)] += (double)(dur - std::min(dur, covered)) / n / 1e3;
    }
  }
  return out;
}

std::string attribution_line(const std::string& label, const Attribution& a) {
  char buf[128];
  snprintf(buf, sizeof(buf), "attribution %s: client %.2f us |", label.c_str(), a.client_us);
  std::string line = buf;
  double sum = 0;
  for (const auto& [layer, us] : a.self_us) {
    sum += us;
    snprintf(buf, sizeof(buf), " %s %.2f |", layer.c_str(), us);
    line += buf;
  }
  snprintf(buf, sizeof(buf), " unattributed %.2f (accounted %.1f%%)", a.client_us - sum,
           a.client_us > 0 ? sum / a.client_us * 100 : 0);
  return line + buf;
}

// ---- decorators ------------------------------------------------------------------

namespace {
// Record a wrapper span for request `req` (no-op unless tracing).
void child_span(const char* name, uint64_t req, uint64_t parent, uint64_t start, uint64_t end) {
  SpanRecorder& rec = SpanRecorder::get();
  if (rec.on() && req != 0) rec.record({rec.intern(name), rec.next_id(), parent, req, start, end});
}

// The request id a replicated value was written for, while tracing.
uint64_t traced_req(std::string_view value) {
  ValueTag tag;
  return SpanRecorder::get().on() && read_tag(value.data(), value.size(), &tag) ? tag.req : 0;
}
}  // namespace

Result<uint64_t> TimedDevice::submit_io(const ssd::IoDesc& d) {
  uint64_t t0 = now_ns();
  auto r = inner_->submit_io(d);
  uint64_t t1 = now_ns();
  ios_.fetch_add(1, std::memory_order_relaxed);
  submit_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  const TraceCtx& c = tl_ctx();
  child_span("ssd.submit", c.req, c.span, t0, t1);
  if (r.is_ok() && r.value() > t1) {
    media_ns_.fetch_add(r.value() - t1, std::memory_order_relaxed);
    child_span("ssd.media", c.req, c.span, t1, r.value());
  }
  return r;
}

uint64_t TimedReplHandler::write_ticket() {
  uint64_t t = inner_->write_ticket();
  uint64_t req = tl_sink_req();
  tl_sink_req() = 0;
  if (t != 0 && req != 0) {
    std::lock_guard<std::mutex> g(mu_);
    ticket_req_[t] = req;
  }
  return t;
}

Status TimedReplHandler::await_ticket(uint64_t ticket) {
  if (uint64_t ns = stall_ns_.exchange(0)) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  uint64_t t0 = now_ns();
  Status s = inner_->await_ticket(ticket);
  uint64_t t1 = now_ns();
  uint64_t req = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    waits_.push_back(t1 - t0);
    auto it = ticket_req_.find(ticket);
    if (it != ticket_req_.end()) {
      req = it->second;
      ticket_req_.erase(it);
    }
  }
  child_span("repl.quorum_wait", req, root_span_id(req), t0, t1);
  return s;
}

net::ReplAck TimedReplHandler::handle_append(const net::ReplEntryWire& e) {
  uint64_t t0 = now_ns();
  net::ReplAck a = inner_->handle_append(e);
  uint64_t t1 = now_ns();
  appends_.fetch_add(1);
  if (!a.accepted) rejected_.fetch_add(1);
  {
    std::lock_guard<std::mutex> g(mu_);
    applies_.push_back(t1 - t0);
  }
  uint64_t req = traced_req(e.value);
  child_span("repl.follower_apply", req, root_span_id(req), t0, t1);
  return a;
}

std::vector<uint64_t> TimedReplHandler::take_waits() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<uint64_t> out;
  out.swap(waits_);
  return out;
}

std::vector<uint64_t> TimedReplHandler::take_applies() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<uint64_t> out;
  out.swap(applies_);
  return out;
}

void TimedReplHandler::reset() {
  std::lock_guard<std::mutex> g(mu_);
  waits_.clear();
  applies_.clear();
  ticket_req_.clear();
  appends_ = 0;
  rejected_ = 0;
}

uint64_t TimedReplSink::prepare(Mutation m) {
  uint64_t req = traced_req(m.value);
  tl_sink_req() = req;
  uint64_t t0 = now_ns();
  uint64_t ticket = inner_->prepare(std::move(m));
  uint64_t t1 = now_ns();
  ns_.fetch_add(t1 - t0);
  calls_.fetch_add(1);
  child_span("repl.sink", req, root_span_id(req), t0, t1);
  return ticket;
}

void TimedReplSink::commit(uint64_t ticket) {
  uint64_t t0 = now_ns();
  inner_->commit(ticket);
  ns_.fetch_add(now_ns() - t0);
}

}  // namespace perfbench
