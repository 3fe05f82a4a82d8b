// The two served workloads and the open-loop generator that drives them.
//
//   served-ycsb-b  a 4-shard ShardedStore behind an in-process net::Server;
//                  95% get / 5% put, uniform over 200k keys, 1 KB values.
//   served-repl-a  primary + one follower (one-shard ShardedStore +
//                  net::Server + repl::Node each, linked by loopback
//                  repl::TcpPeer), quorum 2; 50/50 put/get, zipfian over
//                  20k keys, 256 B. Not listed in BENCHMARK.json (its
//                  end-to-end figures are not steady); served-ycsb-b's
//                  traced run measures its repl layer as a probe.
//
// One generator thread sends on a fixed schedule of absolute rates over
// non-blocking DSTP connections (one tenant namespace each, on distinct
// shards where there are enough) and times every request from its
// *intended* send time, so a stall shows in every request scheduled behind
// it.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "dstore/sharded.h"
#include "net/server.h"
#include "net/wire.h"
#include "repl/repl.h"
#include "repl/tcp_peer.h"

namespace perfbench {

using namespace dstore;

namespace {

constexpr int kSetups = 3;
// The generator spins (instead of blocking) this close to a due send.
constexpr uint64_t kSpinNs = 50000;
// Give up on responses this long after the schedule ended.
constexpr uint64_t kDrainNs = 20ull * 1000000000;
// Slices per step for the robust (median-of-slices) figures.
constexpr size_t kSubWindows = 8;

struct WorkloadSpec {
  const char* name;
  uint64_t keys;
  size_t value_bytes;
  bool zipfian;
  double put_ratio;
  int conns;
  int shards;
  bool replicated;
  // Offered-rate schedule (ops/s). `nominal` and `high` are the fixed
  // absolute rates recorded in BENCHMARK.json; `mid` fills the sweep.
  double nominal, mid, high;
  // The saturation step keeps this many requests in flight; its
  // completions/s is the capacity (throughput_ops).
  uint64_t window;
};

constexpr WorkloadSpec kYcsbB{"served-ycsb-b", 200000, 1024, false, 0.05, 4, 4, false,
                              20000, 40000, 60000, 64};
// The generator self-test: the replicated fleet, puts only.
constexpr WorkloadSpec kStallProbe{"stall-probe", 20000, 256, true, 1.0, 2, 1, true,
                                   0, 0, 0, 0};
constexpr WorkloadSpec kReplA{"served-repl-a", 20000, 256, true, 0.50, 2, 1, true,
                              4000, 8000, 16000, 32};

std::string tenant_key(const std::string& ns, uint64_t key) {
  return ns + '\x1f' + key_name(key);
}

// ---- the fleet --------------------------------------------------------------

struct Member {
  std::unique_ptr<repl::Node> node;
  std::unique_ptr<TimedReplSink> sink;        // outlives the store
  std::unique_ptr<TimedReplHandler> handler;  // outlives the server
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<repl::TcpPeer>> peers;

  ~Member() {
    if (node) node->stop_ticker();
    server.reset();  // before the store it serves
    store.reset();
    peers.clear();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<Member>> members;  // [0] serves the clients
  std::vector<std::string> ns_names;             // one per connection
  std::vector<int> ns_shard;
  Member& front() { return *members[0]; }
};

ShardedConfig shard_config(const WorkloadSpec& w) {
  ShardedConfig c;
  c.num_shards = w.shards;
  uint64_t per_shard = w.keys / (uint64_t)w.shards;
  c.shard.max_objects = per_shard + per_shard / 4 + 1024;
  c.shard.num_blocks = per_shard + per_shard / 4 + 1024;
  c.shard.ssd_qd = kSsdQd;
  c.shard.early_ack = false;
  c.shard.engine.log_slots = 16384;
  c.shard.engine.background_checkpointing = true;
  c.shard.engine.nt_stores = false;
  c.shard.engine.arena_bytes = 0;  // auto-size
  c.latency = LatencyModel::calibrated(kLatencyScale);
  c.pool_mode = pmem::Pool::Mode::kDirect;
  return c;
}

Result<std::unique_ptr<Member>> make_member(const WorkloadSpec& w, uint64_t id, bool primary) {
  auto m = std::make_unique<Member>();
  ShardedConfig scfg = shard_config(w);
  if (w.replicated) {
    repl::NodeConfig ncfg;
    ncfg.node_id = id;
    ncfg.start_as_primary = primary;
    ncfg.initial_primary = 1;
    m->node = std::make_unique<repl::Node>(ncfg);
    m->sink = std::make_unique<TimedReplSink>(m->node.get());
    m->handler = std::make_unique<TimedReplHandler>(m->node.get());
    scfg.repl_sink = m->sink.get();
  }
  auto st = ShardedStore::create(scfg);
  if (!st.is_ok()) return st.status();
  m->store = std::move(st).value();
  if (m->node) m->node->attach_store(m->store.get());
  auto sv = net::Server::start(m->store.get(), net::ServerConfig{}, nullptr, m->handler.get());
  if (!sv.is_ok()) return sv.status();
  m->server = std::move(sv).value();
  return m;
}

// Build the fleet, pick one namespace per connection on distinct shards,
// preload version 0 of every key (key k belongs to namespace k % conns).
// CPU placement on hosts with at least 4 CPUs. The generator owns the last
// CPU. Threads inherit the CPU mask of the thread that creates them, so
// each fleet member is created under its own set: a lone member gets every
// other CPU; a primary gets all but one of them and its follower the last.
// Fixed placement keeps a busy generator, server loop and follower off each
// other's cores, which otherwise varies from run to run.
struct CpuPlan {
  bool on = false;
  int generator = -1;
  cpu_set_t fleet;
  std::vector<cpu_set_t> member;
};

CpuPlan plan_cpus(int members) {
  CpuPlan p;
  int n = (int)std::thread::hardware_concurrency();
  if (n < 4) return p;
  auto range = [](int lo, int hi) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = lo; c <= hi; c++) CPU_SET(c, &set);
    return set;
  };
  p.on = true;
  p.generator = n - 1;
  p.fleet = range(0, n - 2);
  if (members == 1) {
    p.member = {p.fleet};
  } else {
    p.member = {range(0, n - 3), range(n - 2, n - 2)};
  }
  return p;
}

void set_mask(const CpuPlan& p, const cpu_set_t& set) {
  if (p.on) sched_setaffinity(0, sizeof(set), &set);
}

Result<std::unique_ptr<Fleet>> build_fleet(const WorkloadSpec& w, uint64_t seed,
                                           const CpuPlan& cpus) {
  auto f = std::make_unique<Fleet>();
  for (uint64_t id = 1; id <= (w.replicated ? 2u : 1u); id++) {
    set_mask(cpus, cpus.member[id - 1]);
    auto m = make_member(w, id, id == 1);
    if (!m.is_ok()) return m.status();
    f->members.push_back(std::move(m).value());
  }
  if (w.replicated) {
    for (auto& a : f->members) {
      for (auto& b : f->members) {
        if (a == b) continue;
        a->peers.push_back(std::make_unique<repl::TcpPeer>(
            "127.0.0.1:" + std::to_string(b->server->port())));
        a->node->add_peer(b->node->node_id(), a->peers.back().get());
      }
    }
    for (size_t i = 0; i < f->members.size(); i++) {
      set_mask(cpus, cpus.member[i]);
      f->members[i]->node->start_ticker(10);
    }
    // Writes need the follower: wait until it has subscribed and caught up.
    uint64_t deadline = now_ns() + 10ull * 1000000000;
    while (f->front().node->metrics().value("repl_followers_in_sync") < 1) {
      if (now_ns() > deadline) return Status::busy("follower never came in sync");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  set_mask(cpus, cpus.fleet);
  ShardedStore& st = *f->front().store;
  std::vector<bool> used((size_t)w.shards, false);
  for (int i = 0; (int)f->ns_names.size() < w.conns; i++) {
    std::string name = "tenant" + std::to_string(i);
    int sh = st.shard_of(name);
    if (used[(size_t)sh] && f->ns_names.size() < (size_t)w.shards) continue;
    used[(size_t)sh] = true;
    f->ns_names.push_back(name);
    f->ns_shard.push_back(sh);
  }
  std::vector<std::thread> th;
  std::atomic<bool> ok{true};
  Status first_error;
  std::mutex err_mu;
  for (int c = 0; c < w.conns; c++) {
    th.emplace_back([&, c] {
      ShardedStore::Session* s = st.open_session(f->ns_shard[(size_t)c]);
      std::vector<char> buf(w.value_bytes);
      for (uint64_t k = (uint64_t)c; k < w.keys && ok; k += (uint64_t)w.conns) {
        make_value(buf.data(), buf.size(), seed, {k, 0, 0});
        Status ps = st.put_on(s, f->ns_shard[(size_t)c], tenant_key(f->ns_names[(size_t)c], k),
                              buf.data(), buf.size());
        if (ps.is_ok() && w.replicated) ps = f->front().node->finish_write();
        if (!ps.is_ok() && ok.exchange(false)) {
          std::lock_guard<std::mutex> g(err_mu);
          first_error = ps;
        }
      }
      st.close_session(s);
    });
  }
  for (auto& t : th) t.join();
  if (!ok) return first_error;
  // Start the window from an empty log, not mid-way through the
  // checkpoints the preload triggered.
  for (auto& m : f->members) DSTORE_RETURN_IF_ERROR(m->store->checkpoint_all());
  return f;
}

// ---- the open-loop generator ------------------------------------------------

struct Step {
  const char* name;
  double rate;         // offered ops/s (open loop)
  double seconds;
  uint64_t window = 0;  // > 0: saturation step with this many in flight
};

struct StepStats {
  std::vector<uint64_t> get_ns, put_ns, all_ns, late_ns;  // measured requests
  uint64_t completed = 0;        // responses received inside the window
  double window_s = 0;
  uint64_t backlog_max = 0;
  bool backlog_grows = false;
  uint64_t failed = 0;
  uint64_t gap_ns_max = 0;       // longest interval with no completion
  // The window cut into kSubWindows equal slices: each slice's p50 (by
  // intended send) and completions/s, for the robust median-of-slices.
  std::vector<double> get_slice_p50, put_slice_p50, slice_per_s;
  double client_get_us = 0, client_put_us = 0;  // means (for attribution)
  double late_get_us = 0, late_put_us = 0;
};

struct Conn {
  int fd = -1;
  uint32_t ns = 0;
  std::string out;
  size_t out_off = 0;
  std::deque<std::pair<size_t, uint64_t>> unsent;  // (end offset in out, req)
  net::FrameParser parser;
  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

struct Pending {
  uint64_t intended = 0, sent = 0, completed = 0;
  uint64_t key = 0, version = 0;
  int step = -1;  // index of the step whose window measures it, or -1
  bool put = false;
  bool done = false;
};

class Generator {
 public:
  Generator(const WorkloadSpec& w, Fleet& f, uint64_t seed, std::vector<uint64_t>* issued)
      : w_(w), fleet_(f), seed_(seed), issued_(*issued) {}

  Status connect_all() {
    uint16_t port = fleet_.front().server->port();
    for (int c = 0; c < w_.conns; c++) {
      auto cn = std::make_unique<Conn>();
      cn->fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_port = htons(port);
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (cn->fd < 0 || connect(cn->fd, (sockaddr*)&a, sizeof(a)) != 0)
        return Status::io_error("connect failed");
      int one = 1;
      setsockopt(cn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // OPEN_NS synchronously, then switch to non-blocking.
      std::string fr;
      net::append_frame(&fr, net::Op::kOpenNs, 0, 0, net::open_ns_body(fleet_.ns_names[(size_t)c]));
      if (::send(cn->fd, fr.data(), fr.size(), 0) != (ssize_t)fr.size())
        return Status::io_error("open_ns send failed");
      net::Frame resp;
      char buf[4096];
      while (true) {
        ssize_t n = ::recv(cn->fd, buf, sizeof(buf), 0);
        if (n <= 0) return Status::io_error("open_ns recv failed");
        cn->parser.feed(buf, (size_t)n);
        if (cn->parser.next(&resp) == net::FrameParser::Next::kFrame) break;
      }
      net::NamespaceInfo info;
      if (resp.hdr.status != 0 || !net::parse_open_ns_resp(resp.body, &info))
        return Status::io_error("open_ns refused");
      cn->ns = info.ns_id;
      int fl = fcntl_nonblock(cn->fd);
      if (fl < 0) return Status::io_error("fcntl failed");
      conns_.push_back(std::move(cn));
    }
    return Status::ok();
  }

  // Run `steps` back to back; the first `warm` fraction of every step is
  // not measured. Open-loop steps send on their fixed schedule; a
  // saturation step (window > 0) keeps that many requests in flight and
  // sends the next as soon as one completes. `hook(now)` runs every loop
  // iteration (self-test). Drains every outstanding request before
  // returning.
  std::vector<StepStats> run(const std::vector<Step>& steps, double warm, bool traced,
                             uint64_t req_base, const std::function<void(uint64_t)>& hook) {
    SpanRecorder& rec = SpanRecorder::get();
    rec.enable(traced);
    const uint32_t n_root = rec.intern("request"), n_late = rec.intern("gen.late");
    std::vector<StepStats> stats(steps.size());
    KeyGen gen(w_.keys, w_.zipfian, seed_ * 7 + req_base);
    std::vector<uint64_t> step_start(steps.size()), step_end(steps.size()),
        step_warm(steps.size()), step_n(steps.size());
    uint64_t t = now_ns() + 1000000;  // 1 ms to get going
    uint64_t planned = 0;
    for (size_t i = 0; i < steps.size(); i++) {
      step_start[i] = t;
      step_warm[i] = t + (uint64_t)(warm * steps[i].seconds * 1e9);
      step_n[i] = steps[i].window ? 0 : (uint64_t)(steps[i].rate * steps[i].seconds);
      t += (uint64_t)(steps[i].seconds * 1e9);
      step_end[i] = t;
      planned += step_n[i];
    }
    pend_.clear();
    pend_.reserve(planned + (1u << 18));
    std::vector<std::vector<uint64_t>> backlog(steps.size());  // 1 ms samples
    size_t cur = 0;
    uint64_t in_step = 0, outstanding = 0, last_sample = 0, last_done = 0;
    std::vector<char> vbuf(w_.value_bytes);
    char rbuf[1 << 16];
    std::vector<pollfd> pfds;
    for (auto& cp : conns_) pfds.push_back({cp->fd, POLLIN, 0});
    prctl(PR_SET_TIMERSLACK, 1UL);  // ppoll timeouts to the microsecond
    auto step_at = [&](uint64_t ts) {  // index of the step whose window holds ts
      for (size_t s = 0; s < steps.size(); s++) {
        if (ts >= step_warm[s] && ts < step_end[s]) return (int)s;
      }
      return -1;
    };
    while (cur < steps.size() || outstanding > 0) {
      uint64_t now = now_ns();
      if (hook) hook(now);
      // Enqueue everything that is due.
      uint64_t next_due = UINT64_MAX;
      while (cur < steps.size()) {
        uint64_t due;
        if (steps[cur].window == 0) {
          if (in_step >= step_n[cur]) {
            cur++, in_step = 0;
            continue;
          }
          due = step_start[cur] + (uint64_t)((double)in_step * 1e9 / steps[cur].rate);
          if (due > now) {
            next_due = due;
            break;
          }
        } else {
          if (now >= step_end[cur]) {
            cur++, in_step = 0;
            continue;
          }
          if (now < step_start[cur]) {
            next_due = step_start[cur];
            break;
          }
          if (outstanding >= steps[cur].window) break;
          due = now;
        }
        enqueue(due, due >= step_warm[cur] ? (int)cur : -1, req_base, &gen, vbuf.data());
        in_step++, outstanding++;
      }
      if (!send_all(req_base)) return stats;
      // Receive.
      for (auto& cp : conns_) {
        Conn& c = *cp;
        ssize_t n = ::recv(c.fd, rbuf, sizeof(rbuf), MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          fatal_ = "connection lost";
          return stats;
        }
        if (n < 0) continue;
        c.parser.feed(rbuf, (size_t)n);
        net::Frame f;
        net::FrameParser::Next r;
        uint64_t ts = now_ns();
        while ((r = c.parser.next(&f)) == net::FrameParser::Next::kFrame) {
          uint64_t idx = f.hdr.req_id - req_base;
          if (f.hdr.req_id < req_base || idx >= pend_.size() || pend_[idx].done) {
            fatal_ = "response for an unknown request";
            return stats;
          }
          Pending& p = pend_[idx];
          p.done = true;
          p.completed = ts;
          outstanding--;
          bool ok = check_response(f, p);
          int in = step_at(ts);
          if (in >= 0) {
            stats[(size_t)in].completed++;
            if (last_done != 0)
              stats[(size_t)in].gap_ns_max = std::max(stats[(size_t)in].gap_ns_max, ts - last_done);
          }
          last_done = ts;
          if (p.step >= 0) {
            StepStats& st = stats[(size_t)p.step];
            uint64_t lat = ts - p.intended;
            (p.put ? st.put_ns : st.get_ns).push_back(lat);
            st.all_ns.push_back(lat);
            st.late_ns.push_back(p.sent - p.intended);
            if (!ok) st.failed++;
          }
          if (traced) {
            uint64_t req = req_base + idx;
            rec.record({n_root, root_span_id(req), 0, req, p.intended, ts});
            rec.record({n_late, rec.next_id(), root_span_id(req), req, p.intended, p.sent});
          }
        }
        if (r == net::FrameParser::Next::kError) {
          fatal_ = "protocol error: " + c.parser.error().to_string();
          return stats;
        }
      }
      // Nothing to send for a while: block for responses instead of
      // spinning, so the generator leaves the cores to the servers, and
      // spin only over the last stretch before the next send is due.
      now = now_ns();
      bool unsent = false;
      for (auto& cp : conns_) unsent |= cp->out_off < cp->out.size();
      if (!unsent && (next_due == UINT64_MAX || next_due > now + kSpinNs)) {
        uint64_t wait = next_due == UINT64_MAX ? 1000000
                                               : std::min<uint64_t>(next_due - now - kSpinNs,
                                                                    1000000);
        timespec ts{0, (long)wait};
        ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        now = now_ns();
      }
      if (now - last_sample >= 1000000) {
        last_sample = now;
        for (size_t s = 0; s < steps.size(); s++) {
          if (now >= step_start[s] && now < step_end[s]) {
            backlog[s].push_back(outstanding);
            stats[s].backlog_max = std::max<uint64_t>(stats[s].backlog_max, outstanding);
          }
        }
      }
      if (cur == steps.size() && now > step_end.back() + kDrainNs) {
        fatal_ = "requests still outstanding long after the schedule ended";
        return stats;
      }
    }
    rec.enable(false);
    for (size_t s = 0; s < steps.size(); s++) {
      StepStats& st = stats[s];
      st.window_s = (double)(step_end[s] - step_warm[s]) / 1e9;
      // Growing backlog: the last quarter's mean clearly above the second's.
      auto& b = backlog[s];
      if (b.size() >= 8) {
        size_t q = b.size() / 4;
        double m2 = 0, m4 = 0;
        for (size_t i = q; i < 2 * q; i++) m2 += (double)b[i];
        for (size_t i = 3 * q; i < b.size(); i++) m4 += (double)b[i];
        m2 /= (double)q, m4 /= (double)(b.size() - 3 * q);
        st.backlog_grows = m4 > 1.5 * m2 + 32;
      }
      uint64_t len = step_end[s] - step_warm[s];
      std::vector<std::vector<uint64_t>> g(kSubWindows), p(kSubWindows);
      std::vector<double> done(kSubWindows, 0);
      auto slice = [&](uint64_t ts) {
        return (size_t)std::min<uint64_t>(kSubWindows - 1, (ts - step_warm[s]) * kSubWindows / len);
      };
      for (const Pending& q : pend_) {
        if (!q.done) continue;
        if (q.step == (int)s) (q.put ? p : g)[slice(q.intended)].push_back(q.completed - q.intended);
        if (q.completed >= step_warm[s] && q.completed < step_end[s]) done[slice(q.completed)] += 1;
      }
      for (size_t i = 0; i < kSubWindows; i++) {
        if (!g[i].empty()) st.get_slice_p50.push_back(quantile_us(g[i], 0.5));
        if (!p[i].empty()) st.put_slice_p50.push_back(quantile_us(p[i], 0.5));
        st.slice_per_s.push_back(done[i] / ((double)len / kSubWindows / 1e9));
      }
      st.client_get_us = mean_us(st.get_ns);
      st.client_put_us = mean_us(st.put_ns);
      std::vector<uint64_t> lg, lp;
      for (const Pending& p : pend_) {
        if (p.step == (int)s) (p.put ? lp : lg).push_back(p.sent - p.intended);
      }
      st.late_get_us = mean_us(lg);
      st.late_put_us = mean_us(lp);
    }
    return stats;
  }

  // Request ids of the measured requests of step `step` of the last run.
  std::vector<uint64_t> measured(int step, bool put, uint64_t req_base) const {
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < pend_.size(); i++) {
      if (pend_[i].step == step && pend_[i].put == put && pend_[i].done) out.push_back(req_base + i);
    }
    return out;
  }

  uint64_t issued() const { return pend_.size(); }  // requests of the last run
  // (intended send, latency) of every completed request of the last run.
  std::vector<std::pair<uint64_t, uint64_t>> latencies() const {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const Pending& p : pend_) {
      if (p.done) out.push_back({p.intended, p.completed - p.intended});
    }
    return out;
  }
  uint64_t wrong() const { return wrong_; }
  uint64_t failed() const { return failed_; }
  const std::string& fatal() const { return fatal_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  // Queue one request (intended send time `due`) on its key's connection.
  void enqueue(uint64_t due, int step, uint64_t req_base, KeyGen* gen, char* vbuf) {
    Pending p;
    p.intended = due;
    p.step = step;
    p.key = gen->next();
    p.put = gen->uniform01() < w_.put_ratio;
    Conn& c = *conns_[(size_t)(p.key % (uint64_t)w_.conns)];
    uint64_t req = req_base + pend_.size();
    std::string key = key_name(p.key);
    if (p.put) {
      p.version = ++issued_[p.key];
      make_value(vbuf, w_.value_bytes, seed_, {p.key, p.version, req});
      net::append_frame(&c.out, net::Op::kPut, req, 0,
                        net::put_body(c.ns, key, vbuf, w_.value_bytes));
    } else {
      // Requests on one connection execute in send order, so a get sees
      // exactly the last put sent before it.
      p.version = issued_[p.key];
      net::append_frame(&c.out, net::Op::kGet, req, 0, net::key_body(c.ns, key));
    }
    c.unsent.push_back({c.out.size(), req});
    pend_.push_back(p);
  }

  // Hand queued bytes to the sockets; stamps each fully sent request.
  bool send_all(uint64_t req_base) {
    for (auto& cp : conns_) {
      Conn& c = *cp;
      if (c.out_off == c.out.size()) continue;
      // A request counts as sent when its last byte is handed to the
      // kernel; the send syscall itself is network time.
      uint64_t ts = now_ns();
      ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        fatal_ = "send: " + std::string(strerror(errno));
        return false;
      }
      if (n <= 0) continue;
      c.out_off += (size_t)n;
      while (!c.unsent.empty() && c.unsent.front().first <= c.out_off) {
        pend_[c.unsent.front().second - req_base].sent = ts;
        c.unsent.pop_front();
      }
      if (c.out_off == c.out.size()) {
        c.out.clear(), c.out_off = 0;
      } else if (c.out_off > (1u << 20)) {  // compact; rebase the offsets
        c.out.erase(0, c.out_off);
        for (auto& u : c.unsent) u.first -= c.out_off;
        c.out_off = 0;
      }
    }
    return true;
  }

  // Check one response against the oracle; false on failure or a wrong value.
  bool check_response(const net::Frame& f, const Pending& p) {
    if (f.hdr.status != 0) {
      if (++failed_ <= 4)
        errors_.push_back(std::string(p.put ? "put " : "get ") + key_name(p.key) +
                          " failed with status " + std::to_string(f.hdr.status));
      return false;
    }
    if (p.put) return true;
    ValueTag tag;
    if (f.body.size() != w_.value_bytes || !read_tag(f.body.data(), f.body.size(), &tag) ||
        tag.key != p.key || tag.version != p.version) {
      if (++wrong_ <= 4) errors_.push_back("wrong value for " + key_name(p.key));
      return false;
    }
    return true;
  }

  static int fcntl_nonblock(int fd) {
    int fl = fcntl(fd, F_GETFL, 0);
    return fl < 0 ? fl : fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  }

  const WorkloadSpec& w_;
  Fleet& fleet_;
  uint64_t seed_;
  std::vector<uint64_t>& issued_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Pending> pend_;
  uint64_t wrong_ = 0, failed_ = 0;
  std::string fatal_;
  std::vector<std::string> errors_;
};

// Exact oracle check of every key through the store's public API.
void verify_store(ShardedStore& st, const Fleet& f, const WorkloadSpec& w,
                  const std::vector<uint64_t>& issued, const char* who, Report* r) {
  ShardedStore::Session* s = st.open_session();
  std::vector<char> buf(w.value_bytes);
  for (uint64_t k = 0; k < w.keys; k++) {
    size_t c = k % (size_t)w.conns;
    auto got = st.get_on(s, f.ns_shard[c], tenant_key(f.ns_names[c], k), buf.data(), buf.size());
    ValueTag tag;
    if (!got.is_ok() || got.value() != w.value_bytes || !read_tag(buf.data(), buf.size(), &tag) ||
        tag.key != k || tag.version != issued[k]) {
      r->wrong++;
      r->error(std::string(who) + ": " + key_name(k) + " does not hold its last acknowledged value");
    }
  }
  st.close_session(s);
  r->attempted += w.keys;
}

double snap_value(const std::vector<obs::MetricSnapshot>& s, const char* name) {
  for (const auto& m : s) {
    if (m.name == name) return m.type == obs::MetricType::kHistogram ? m.mean() : m.value;
  }
  return 0;
}

const obs::MetricSnapshot* snap_hist(const std::vector<obs::MetricSnapshot>& s,
                                     const char* name) {
  for (const auto& m : s) {
    if (m.name == name && m.type == obs::MetricType::kHistogram) return &m;
  }
  return nullptr;
}


bool meets_slo(StepStats& s) {
  return !s.all_ns.empty() && s.failed == 0 && !s.backlog_grows &&
         quantile_us(s.all_ns, 0.99) <= kSloUs;
}

}  // namespace

// One served workload on a fresh fleet. With `sweep`, the untraced rate
// sweep and the end-to-end figures (and set-up timed over kSetups
// builds); with opt.trace, the traced nominal pass and the per-layer
// figures. Every acknowledged write is verified at the end.
static void serve(const WorkloadSpec& w, const Options& opt, bool sweep, Report* r) {
  CpuPlan cpus = plan_cpus(w.replicated ? 2 : 1);
  if (cpus.on) {
    r->env["cpus"] = std::string(w.replicated ? "primary, follower" : "fleet") +
                     " then generator on the last of " +
                     std::to_string(std::thread::hardware_concurrency());
  }
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups;
  for (int i = 0; i < (sweep ? kSetups : 1); i++) {
    fleet.reset();
    uint64_t t0 = now_ns();
    auto f = build_fleet(w, opt.seed, cpus);
    if (!f.is_ok()) {
      r->error("setup: " + f.status().to_string());
      return;
    }
    fleet = std::move(f).value();
    setups.push_back((double)(now_ns() - t0) / 1e9);
  }
  if (sweep) r->set_e2e("setup_s", median(setups), "s");
  Member& front = fleet->front();
  ShardedStore& st = *front.store;
  std::vector<uint64_t> issued(w.keys, 0);
  if (cpus.on) {
    cpu_set_t g;
    CPU_ZERO(&g);
    CPU_SET(cpus.generator, &g);
    set_mask(cpus, g);
  }
  Generator gen(w, *fleet, opt.seed, &issued);
  if (Status cs = gen.connect_all(); !cs.is_ok()) {
    r->error(cs.to_string());
    return;
  }
  auto finish = [&](uint64_t attempted) {  // once, after the last run
    r->attempted += attempted;
    r->wrong += gen.wrong();
    r->failed += gen.failed();
    for (const auto& e : gen.errors()) r->error(e);
    if (!gen.fatal().empty()) r->error(gen.fatal());
  };
  const double warm = 0.1;
  double S = opt.seconds;
  char line[512];

  uint64_t attempted = 0;
  StepStats nom;  // the sweep's nominal steps pooled
  if (sweep) {
    // The measured window: the rate sweep, untraced. The nominal rate comes
    // back three times, spread over the window; its figures are the median
    // over all of its slices, so host noise that lasts a few seconds moves
    // them little.
    std::vector<Step> steps = {{"nominal", w.nominal, S * 0.15}, {"mid", w.mid, S * 0.10},
                               {"nominal", w.nominal, S * 0.15}, {"high", w.high, S * 0.25},
                               {"nominal", w.nominal, S * 0.15},
                               {"saturate", 0, S * 0.20, w.window}};
    auto stats = gen.run(steps, warm, false, 1, nullptr);
    attempted = gen.issued();
    if (!gen.fatal().empty()) return finish(attempted);
    for (size_t i = 0; i < steps.size(); i++) {
      if (std::string(steps[i].name) != "nominal") continue;
      StepStats& s = stats[i];
      auto append = [](auto& dst, const auto& src) { dst.insert(dst.end(), src.begin(), src.end()); };
      append(nom.get_ns, s.get_ns);
      append(nom.put_ns, s.put_ns);
      append(nom.all_ns, s.all_ns);
      append(nom.get_slice_p50, s.get_slice_p50);
      append(nom.put_slice_p50, s.put_slice_p50);
      nom.backlog_grows |= s.backlog_grows;
    }
    StepStats& high = stats[3];
    r->set_e2e("get_p50_us", median(nom.get_slice_p50), "us");
    r->set_e2e("put_p50_us", median(nom.put_slice_p50), "us");
    r->set_layer("client.get_p99_us", quantile_us(nom.get_ns, 0.99), "us");
    r->set_layer("client.put_p99_us", quantile_us(nom.put_ns, 0.99), "us");
    r->set_layer("client.get_p50_us.high", quantile_us(high.get_ns, 0.50), "us");
    r->set_layer("client.put_p50_us.high", quantile_us(high.put_ns, 0.50), "us");
    r->set_layer("client.get_p99_us.high", quantile_us(high.get_ns, 0.99), "us");
    r->set_layer("client.put_p99_us.high", quantile_us(high.put_ns, 0.99), "us");
    double best = 0;
    for (size_t i = 0; i < steps.size(); i++) {
      StepStats& s = stats[i];
      bool ok = meets_slo(s);
      if (ok) best = std::max(best, (double)s.completed / s.window_s);
      snprintf(line, sizeof(line),
               "step %-8s offered %8.0f/s completed %9.1f/s p50 %8.1f us p99 %9.1f us "
               "late_p99 %7.1f us backlog_max %6llu%s -> %s",
               steps[i].name, steps[i].rate, (double)s.completed / s.window_s,
               quantile_us(s.all_ns, 0.5), quantile_us(s.all_ns, 0.99),
               quantile_us(s.late_ns, 0.99), (unsigned long long)s.backlog_max,
               s.backlog_grows ? " (growing)" : "", ok ? "meets the limit" : "misses the limit");
      r->notes.push_back(line);
    }
    if (nom.backlog_grows) r->error("backlog grows at the nominal rate");
    r->set_layer("client.max_rate_at_slo_ops", best, "ops/s");
    r->set_e2e("throughput_ops", median(stats[5].slice_per_s), "ops/s");
    // Space in a settled state: right after a checkpoint.
    if (Status cs = st.checkpoint_all(); !cs.is_ok()) r->error("checkpoint: " + cs.to_string());
    DStore::SpaceUsage u = st.space_usage();
    snprintf(line, sizeof(line), "space in use: dram %llu pmem %llu ssd %llu bytes",
             (unsigned long long)u.dram_bytes, (unsigned long long)u.pmem_bytes,
             (unsigned long long)u.ssd_bytes);
    r->notes.push_back(line);
    r->set_e2e("space_amp", (double)(u.dram_bytes + u.pmem_bytes + u.ssd_bytes) /
                                ((double)w.keys * (double)w.value_bytes),
               "x");
  }

  if (opt.trace) {
    // Traced pass: the nominal step again, with spans, on the same fleet.
    std::vector<Step> traced_steps = {{"nominal", w.nominal, S * 0.5}};
    uint64_t req_base = 1 + attempted;
    for (int i = 0; i < st.num_shards(); i++) st.shard(i).metrics().reset();
    auto before_reset = st.metrics_snapshot();
    obs::MetricsRegistry& net_m = front.server->metrics();
    double in0 = net_m.value("net_bytes_in_total"), out0 = net_m.value("net_bytes_out_total");
    std::vector<obs::MetricSnapshot> f_before, p_before;
    if (w.replicated) {
      p_before = front.node->metrics().snapshot();
      f_before = fleet->members[1]->node->metrics().snapshot();
      front.handler->reset();
      fleet->members[1]->handler->reset();
      front.sink->reset();
    }
    // Log-fill sampler over every shard, every 10 ms.
    std::atomic<bool> stop{false};
    double fill_max = 0;
    std::thread sampler([&] {
      while (!stop.load()) {
        for (int i = 0; i < st.num_shards(); i++)
          fill_max = std::max(fill_max, st.shard(i).metrics().value("dipper_log_fill_ratio"));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    ProcSample p0 = ProcSample::now();
    auto traced = gen.run(traced_steps, warm, true, req_base, nullptr);
    ProcSample p1 = ProcSample::now();
    stop = true;
    sampler.join();
    attempted += gen.issued();
    if (!gen.fatal().empty()) return finish(attempted);
    auto after = st.metrics_snapshot();
    StepStats& t = traced[0];
    double ops = (double)(t.get_ns.size() + t.put_ns.size());
    double all_ops = (double)gen.issued();  // every request of the traced pass
    double puts = std::max(1.0, snap_value(after, "dstore_puts_total"));
    auto delta = [&](const char* n) { return snap_value(after, n) - snap_value(before_reset, n); };
    double get_store = snap_value(after, "dstore_get_latency_ns") / 1e3;
    double put_store = snap_value(after, "dstore_put_latency_ns") / 1e3;
    r->set_layer("dstore.get_us", get_store, "us");
    r->set_layer("dstore.put_us", put_store, "us");
    if (const auto* h = snap_hist(after, "dstore_put_latency_ns")) {
      r->set_layer("dstore.put_p999_us", (double)h->value_at_quantile(0.999) / 1e3, "us");
      r->set_layer("dstore.put_max_us", (double)h->max / 1e3, "us");
    }
    if (const auto* h = snap_hist(after, "dstore_get_latency_ns"))
      r->set_layer("dstore.get_p999_us", (double)h->value_at_quantile(0.999) / 1e3, "us");
    double staged = 0;
    for (const char* stage :
         {"log_append", "pool_alloc", "meta_zone", "btree", "ssd_batch", "commit_flush"}) {
      double v = snap_value(after, (std::string("dstore_stage_") + stage + "_ns").c_str()) / 1e3;
      staged += v;
      r->set_layer(std::string("dstore.stage.") + stage + "_us", v, "us");
    }
    r->set_layer("dstore.unattributed_us", put_store - staged, "us");
    double cks = delta("dipper_checkpoints_total");
    r->set_layer("dipper.checkpoints", cks, "count");
    r->set_layer("dipper.ckpt_ms", cks > 0 ? delta("dipper_ckpt_total_ns") / cks / 1e6 : 0, "ms");
    r->set_layer("dipper.backpressure_waits", delta("dipper_backpressure_waits_total"), "count");
    r->set_layer("dipper.log_fill_max", fill_max, "ratio");
    r->set_layer("dipper.stall_ms_max", (double)t.gap_ns_max / 1e6, "ms");
    r->set_layer("dipper.records_per_put", delta("dipper_records_appended_total") / puts, "count");
    r->set_layer("pmem.fences_per_put", snap_value(after, "dstore_put_fences_per_op"), "count");
    r->set_layer("pmem.flushes_per_put", snap_value(after, "dstore_put_flushes_per_op"), "count");
    r->set_layer("pmem.bytes_flushed_per_put",
                 snap_value(after, "dstore_put_flushes_per_op") * 64, "B");
    r->set_layer("ssd.ios_per_op",
                 (delta("ssd_write_ios_total") + delta("ssd_read_ios_total")) / all_ops, "count");
    r->set_layer("ssd.write_amp", delta("ssd_bytes_written_total") / (puts * (double)w.value_bytes),
                 "x");
    r->set_layer("ssd.retries", delta("ssd_io_retries_total"), "count");
    r->set_layer("ckpt_pool.runs", delta("sharded_ckpt_runs_total"), "count");
    r->set_layer("ckpt_pool.steal_chunks", delta("sharded_ckpt_steal_chunks_total"), "count");
    r->set_layer("net.bytes_in_per_op", (net_m.value("net_bytes_in_total") - in0) / all_ops, "B");
    r->set_layer("net.bytes_out_per_op", (net_m.value("net_bytes_out_total") - out0) / all_ops,
                 "B");
    r->set_layer("gen.late_p99_us", quantile_us(t.late_ns, 0.99), "us");
    r->set_layer("gen.backlog_max", (double)t.backlog_max, "count");
    r->set_layer("proc.cpu_us_per_op", (p1.cpu_s - p0.cpu_s) / all_ops * 1e6, "us");
    r->set_layer("proc.syscalls_per_op", (double)(p1.syscalls - p0.syscalls) / all_ops, "count");
    if (sweep) {
      double b50 = quantile_us(nom.all_ns, 0.5), t50 = quantile_us(t.all_ns, 0.5);
      r->set_layer("trace.overhead_pct", (t50 - b50) / b50 * 100.0, "%");
    }

    double wait_mean = 0, apply_mean = 0, sink_mean = 0;
    if (w.replicated) {
      std::vector<uint64_t> waits = front.handler->take_waits();
      std::vector<uint64_t> applies = fleet->members[1]->handler->take_applies();
      wait_mean = mean_us(waits), apply_mean = mean_us(applies);
      sink_mean = front.sink->calls() ? (double)front.sink->total_ns() / front.sink->calls() / 1e3 : 0;
      r->set_layer("repl.quorum_wait_us.p50", quantile_us(waits, 0.5), "us");
      r->set_layer("repl.quorum_wait_us.p99", quantile_us(waits, 0.99), "us");
      r->set_layer("repl.follower_apply_us", apply_mean, "us");
      r->set_layer("repl.sink_us", sink_mean, "us");
      auto p_after = front.node->metrics().snapshot();
      auto f_after = fleet->members[1]->node->metrics().snapshot();
      uint64_t appends = fleet->members[1]->handler->appends();
      double applied = snap_value(f_after, "repl_entries_applied_total") -
                       snap_value(f_before, "repl_entries_applied_total");
      r->set_layer("repl.entries_per_append", appends ? applied / (double)appends : 0, "count");
      r->set_layer("repl.append_rejects",
                   snap_value(p_after, "repl_append_rejects_total") -
                       snap_value(p_before, "repl_append_rejects_total") +
                       (double)fleet->members[1]->handler->rejected(),
                   "count");
      r->set_layer("repl.resyncs",
                   snap_value(p_after, "repl_resyncs_total") -
                       snap_value(p_before, "repl_resyncs_total"),
                   "count");
    }
    // net self time = client mean - generator lateness - store op - repl.
    double share_put = t.put_ns.size() / std::max(1.0, ops);
    double net_get = t.client_get_us - t.late_get_us - get_store;
    double net_put = t.client_put_us - t.late_put_us - put_store - wait_mean;
    r->set_layer("net.self_us", (1 - share_put) * net_get + share_put * net_put, "us");

    // Attribution from the spans: layer self-time means per request type.
    std::vector<Span> spans = SpanRecorder::get().collect();
    // A follower apply happens inside the quorum wait of the same request.
    std::unordered_map<uint64_t, uint64_t> wait_of;
    uint32_t n_wait = SpanRecorder::get().intern("repl.quorum_wait");
    uint32_t n_apply = SpanRecorder::get().intern("repl.follower_apply");
    for (const Span& s : spans)
      if (s.name == n_wait) wait_of[s.req] = s.id;
    for (Span& s : spans) {
      auto it = wait_of.find(s.req);
      if (s.name == n_apply && it != wait_of.end()) s.parent = it->second;
    }
    // The store op is not a span: its mean comes from the store's
    // histograms (a put's repl sink span sits inside it, so it counts only
    // what that span leaves). The network, the server loop and thread
    // wake-ups have no span of their own and stay unattributed.
    for (int put = 0; put <= 1; put++) {
      Attribution a = attribute(spans, gen.measured(0, put == 1, req_base));
      a.self_us["dstore"] = put ? std::max(0.0, put_store - sink_mean) : get_store;
      r->notes.push_back(attribution_line(std::string(w.name) + (put ? " put" : " get"), a));
    }
  }

  finish(attempted);
  if (!gen.fatal().empty()) return;
  // Every acknowledged write must be in the serving store, and — with
  // quorum 2 — already on the follower.
  for (auto& m : fleet->members) m->server->stop();
  for (auto& m : fleet->members)
    if (m->node) m->node->stop_ticker();
  verify_store(st, *fleet, w, issued, "primary", r);
  if (w.replicated) verify_store(*fleet->members[1]->store, *fleet, w, issued, "follower", r);
}

void run_served(const Options& opt, Served kind, Report* r) {
  serve(kind == Served::kYcsbB ? kYcsbB : kReplA, opt, true, r);
  if (kind != Served::kYcsbB || !opt.trace || !r->correct()) return;
  // The replication probe: served-ycsb-b's traced run also measures the
  // repl layer, on the served-repl-a fleet at its nominal rate (traced
  // pass only), so the repl metrics are measured on a benchmark workload
  // even though served-repl-a's own end-to-end figures are not bounded.
  Report probe;
  serve(kReplA, opt, false, &probe);
  for (const auto& [name, m] : probe.layer) {
    if (name.rfind("repl.", 0) == 0) r->layer[name] = m;
  }
  for (const auto& n : probe.notes) {
    if (n.rfind("attribution", 0) == 0) r->notes.push_back(n + " (replication probe)");
  }
  r->attempted += probe.attempted;
  r->failed += probe.failed;
  r->wrong += probe.wrong;
  for (const auto& e : probe.errors) r->error("replication probe: " + e);
}

void run_stall_probe(StallProbe* p) {
  const WorkloadSpec& w = kStallProbe;
  auto f = build_fleet(w, 1, CpuPlan{});
  if (!f.is_ok()) return;
  Fleet& fleet = *f.value();
  std::vector<uint64_t> issued(w.keys, 0);
  Generator gen(w, fleet, 1, &issued);
  if (!gen.connect_all().is_ok()) return;
  uint64_t arm_at = 0;
  auto hook = [&](uint64_t now) {
    if (arm_at == 0) arm_at = now + (uint64_t)(p->seconds * 0.5e9);
    if (p->stall_at == 0 && now >= arm_at) {
      p->stall_at = now;
      fleet.front().handler->stall_next(p->stall_ns);
    }
  };
  auto stats = gen.run({{"probe", p->rate, p->seconds}}, 0.0, false, 1, hook);
  if (!gen.fatal().empty() || gen.failed() != 0 || gen.wrong() != 0) return;
  p->puts = gen.latencies();
  p->late_p99_us = quantile_us(stats[0].late_ns, 0.99);
  p->ok = true;
  for (auto& m : fleet.members) m->server->stop();
}

}  // namespace perfbench

