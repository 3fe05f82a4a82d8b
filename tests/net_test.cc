// Tests for the network service layer (DESIGN.md §15): the wire codec
// (round-trips, stream reassembly, deterministic garbage fuzz), the epoll
// server + client library end to end (pipelining, out-of-order completion,
// tenant isolation, metrics over the wire), and — under fault injection —
// the server crash rig: a fault plan kills the live server mid-checkpoint
// and recovery is held to a zero-acked-write-loss oracle. The fixture's
// two shards give the server two event loops on any host with two CPUs,
// so connections are dealt across loops throughout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "dipper/log.h"
#include "dstore/sharded.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pmem/pool.h"
#include "repl/repl.h"

namespace dstore::net {
namespace {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(WireCodec, FrameRoundTripsThroughParser) {
  std::string stream;
  append_frame(&stream, Op::kPut, 42, 0, "hello body");
  append_frame(&stream, Op::kGet, 43, 3, "");  // status byte rides along

  FrameParser p;
  p.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.op, Op::kPut);
  EXPECT_EQ(f.hdr.req_id, 42u);
  EXPECT_EQ(f.hdr.status, 0u);
  EXPECT_EQ(f.body, "hello body");
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.op, Op::kGet);
  EXPECT_EQ(f.hdr.req_id, 43u);
  EXPECT_EQ(f.hdr.status, 3u);
  EXPECT_TRUE(f.body.empty());
  EXPECT_EQ(p.next(&f), FrameParser::Next::kNeedMore);
}

TEST(WireCodec, ReassemblesFramesFedOneByteAtATime) {
  std::string stream;
  std::string body(1000, 'x');
  append_frame(&stream, Op::kScrub, 7, 0, body);
  FrameParser p;
  Frame f;
  for (size_t i = 0; i < stream.size(); i++) {
    p.feed(&stream[i], 1);
    if (i + 1 < stream.size()) {
      ASSERT_EQ(p.next(&f), FrameParser::Next::kNeedMore) << "at byte " << i;
    }
  }
  ASSERT_EQ(p.next(&f), FrameParser::Next::kFrame);
  EXPECT_EQ(f.hdr.req_id, 7u);
  EXPECT_EQ(f.body, body);
}

TEST(WireCodec, BodyBuildersRoundTrip) {
  std::string_view name;
  std::string ob = open_ns_body("tenant-a");  // outlives the parsed view
  ASSERT_TRUE(parse_open_ns(ob, &name));
  EXPECT_EQ(name, "tenant-a");

  uint32_t ns = 0;
  std::string_view key, value;
  std::string kb = key_body(9, "obj-1");
  ASSERT_TRUE(parse_key(kb, &ns, &key));
  EXPECT_EQ(ns, 9u);
  EXPECT_EQ(key, "obj-1");

  std::string payload = "\x00\x01payload\xff";
  std::string pb = put_body(3, "k", payload.data(), payload.size());
  ASSERT_TRUE(parse_put(pb, &ns, &key, &value));
  EXPECT_EQ(ns, 3u);
  EXPECT_EQ(key, "k");
  EXPECT_EQ(value, payload);

  uint8_t format = 9;
  ASSERT_TRUE(parse_metrics(metrics_body(1), &format));
  EXPECT_EQ(format, 1u);

  NamespaceInfo info;
  ASSERT_TRUE(parse_open_ns_resp(open_ns_resp_body({12, 2}), &info));
  EXPECT_EQ(info.ns_id, 12u);
  EXPECT_EQ(info.shard, 2u);

  ScrubSummary in{1, 2, 3, 4, 5}, out;
  ASSERT_TRUE(parse_scrub_resp(scrub_resp_body(in), &out));
  EXPECT_EQ(out.objects_scanned, 1u);
  EXPECT_EQ(out.quarantined_pages, 5u);
}

TEST(WireCodec, TruncatedBodiesFailToParseWithoutCrashing) {
  // The value is "rest of body" (its length is implied by the frame's
  // body_len), so the structured prefix is u32 ns + u16 key_len + key:
  // any cut inside it must be rejected; cuts beyond it just shorten the
  // value, which the frame layer has already vouched for.
  std::string pb = put_body(3, "key", "value", 5);
  const size_t structured = 4 + 2 + 3;
  uint32_t ns;
  std::string_view key, value;
  for (size_t cut = 0; cut < structured; cut++) {
    EXPECT_FALSE(parse_put(std::string_view(pb.data(), cut), &ns, &key, &value))
        << "prefix of " << cut << " bytes parsed";
  }
  for (size_t cut = structured; cut <= pb.size(); cut++) {
    ASSERT_TRUE(parse_put(std::string_view(pb.data(), cut), &ns, &key, &value));
    EXPECT_EQ(key, "key");
    EXPECT_EQ(value.size(), cut - structured);
  }

  // key_body has no trailing blob, so there EVERY strict prefix fails.
  std::string kb = key_body(3, "key");
  for (size_t cut = 0; cut < kb.size(); cut++) {
    EXPECT_FALSE(parse_key(std::string_view(kb.data(), cut), &ns, &key))
        << "prefix of " << cut << " bytes parsed";
  }
  ASSERT_TRUE(parse_key(kb, &ns, &key));
}

TEST(WireCodec, GarbageMagicPoisonsParser) {
  FrameParser p;
  std::string junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";  // not DSTP
  p.feed(junk.data(), junk.size());
  Frame f;
  ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
  EXPECT_EQ(p.error().code(), Code::kInvalidArgument);
  // Poisoned for good: even a valid frame afterwards stays an error.
  std::string good;
  append_frame(&good, Op::kPut, 1, 0, "");
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(&f), FrameParser::Next::kError);
}

TEST(WireCodec, VersionMismatchAndOversizeAreErrors) {
  {
    std::string stream;
    append_frame(&stream, Op::kPut, 1, 0, "");
    stream[4] = (char)(kVersion + 1);
    FrameParser p;
    p.feed(stream.data(), stream.size());
    Frame f;
    ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
    EXPECT_EQ(p.error().code(), Code::kUnsupported);
  }
  {
    // body_len over the limit must error BEFORE any allocation happens.
    std::string hdr;
    append_frame(&hdr, Op::kPut, 1, 0, "");
    uint32_t huge = 64u << 20;
    memcpy(&hdr[16], &huge, sizeof(huge));  // little-endian host assumed in tests
    FrameParser p(1 << 20);
    p.feed(hdr.data(), hdr.size());
    Frame f;
    ASSERT_EQ(p.next(&f), FrameParser::Next::kError);
    EXPECT_EQ(p.error().code(), Code::kInvalidArgument);
  }
}

// Deterministic garbage fuzz: random byte streams (fixed seeds) must never
// crash the parser — every stream ends in kNeedMore or a poisoned error.
TEST(WireCodec, DeterministicGarbageFuzz) {
  for (uint64_t seed = 1; seed <= 64; seed++) {
    uint64_t x = seed * 0x9e3779b97f4a7c15ull;
    auto next_byte = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return (char)(x & 0xff);
    };
    FrameParser p(1 << 16);
    Frame f;
    for (int round = 0; round < 32; round++) {
      char chunk[64];
      for (char& c : chunk) c = next_byte();
      // A quarter of the streams start with valid magic+version, so the
      // fuzz also exercises the header-accepted/body-pending path.
      if (round == 0 && seed % 4 == 0) {
        std::string valid;
        append_frame(&valid, Op::kGet, seed, 0, "seedbody");
        p.feed(valid.data(), valid.size());
      }
      p.feed(chunk, sizeof(chunk));
      for (int drain = 0; drain < 64; drain++) {
        FrameParser::Next n = p.next(&f);
        if (n != FrameParser::Next::kFrame) break;
      }
    }
    // Either outcome is legal; crashing or spinning forever is not.
    SUCCEED();
  }
}

// Truncation fuzz: every prefix of a valid multi-frame stream leaves the
// parser waiting (never poisoned, never inventing a frame early).
TEST(WireCodec, TruncatedStreamsAlwaysNeedMore) {
  std::string stream;
  append_frame(&stream, Op::kPut, 1, 0, "0123456789");
  append_frame(&stream, Op::kDelete, 2, 0, "");
  for (size_t cut = 0; cut < stream.size(); cut++) {
    FrameParser p;
    p.feed(stream.data(), cut);
    Frame f;
    FrameParser::Next n = p.next(&f);
    while (n == FrameParser::Next::kFrame) n = p.next(&f);
    EXPECT_EQ(n, FrameParser::Next::kNeedMore) << "prefix " << cut;
  }
}

// ---------------------------------------------------------------------------
// Replication opcodes (DESIGN.md §16): codec coverage
// ---------------------------------------------------------------------------

TEST(WireCodec, ReplBodiesRoundTrip) {
  Heartbeat hb{7, 3, 42}, hb2;
  ASSERT_TRUE(parse_heartbeat(heartbeat_body(hb), &hb2));
  EXPECT_EQ(hb2.epoch, 7u);
  EXPECT_EQ(hb2.node_id, 3u);
  EXPECT_EQ(hb2.commit_seq, 42u);

  ReplAck a{9, 41, 1}, a2;
  ASSERT_TRUE(parse_repl_ack(repl_ack_body(a), &a2));
  EXPECT_EQ(a2.epoch, 9u);
  EXPECT_EQ(a2.applied_seq, 41u);
  EXPECT_EQ(a2.accepted, 1u);

  ReplHello h{ReplHello::kSnapPull, 2, 5, 100, 1}, h2;
  ASSERT_TRUE(parse_repl_hello(repl_hello_body(h), &h2));
  EXPECT_EQ(h2.kind, ReplHello::kSnapPull);
  EXPECT_EQ(h2.epoch, 2u);
  EXPECT_EQ(h2.node_id, 5u);
  EXPECT_EQ(h2.seq, 100u);
  EXPECT_EQ(h2.last_epoch, 1u);

  ReplSubscribeResult r{ReplSubscribeResult::kResync, 4, 1, 77, 3}, r2;
  ASSERT_TRUE(parse_repl_subscribe_resp(repl_subscribe_resp_body(r), &r2));
  EXPECT_EQ(r2.result, ReplSubscribeResult::kResync);
  EXPECT_EQ(r2.epoch, 4u);
  EXPECT_EQ(r2.primary_id, 1u);
  EXPECT_EQ(r2.base_seq, 77u);
  EXPECT_EQ(r2.base_epoch, 3u);

  PromoteReq p{PromoteReq::kVote, 6, 2, 88, 5}, p2;
  ASSERT_TRUE(parse_promote(promote_body(p), &p2));
  EXPECT_EQ(p2.kind, PromoteReq::kVote);
  EXPECT_EQ(p2.epoch, 6u);
  EXPECT_EQ(p2.node_id, 2u);
  EXPECT_EQ(p2.seq, 88u);
  EXPECT_EQ(p2.seq_epoch, 5u);

  PromoteResp q{1, 11}, q2;
  ASSERT_TRUE(parse_promote_resp(promote_resp_body(q), &q2));
  EXPECT_EQ(q2.granted, 1u);
  EXPECT_EQ(q2.epoch, 11u);

  // Enum-carrying bytes are validated, not trusted.
  std::string bad_kind = repl_hello_body(h);
  bad_kind[0] = 9;
  EXPECT_FALSE(parse_repl_hello(bad_kind, &h2));
  std::string bad_result = repl_subscribe_resp_body(r);
  bad_result[0] = 9;
  EXPECT_FALSE(parse_repl_subscribe_resp(bad_result, &r2));
  std::string bad_vote = promote_body(p);
  bad_vote[0] = 9;
  EXPECT_FALSE(parse_promote(bad_vote, &p2));
}

TEST(WireCodec, ReplAppendRoundTripsWithAndWithoutSlotImage) {
  std::string image(128, '\x5a');
  ReplEntryWire e;
  e.epoch = 3;
  e.seq = 17;
  e.entry_epoch = 2;
  e.op = 4;
  e.eflags = 0;
  e.shard = 1;
  e.slot = 9;
  e.lsn = 1234;
  e.arg0 = 11;
  e.arg1 = 22;
  e.value_crc = 0xdeadbeef;
  std::string val("\x00val\xffue", 7);
  e.key = "some-key";
  e.slot_image = image;
  e.value = val;

  std::string b = repl_append_body(e);
  ReplEntryWire d;
  ASSERT_TRUE(parse_repl_append(b, &d));
  EXPECT_EQ(d.epoch, 3u);
  EXPECT_EQ(d.seq, 17u);
  EXPECT_EQ(d.entry_epoch, 2u);
  EXPECT_EQ(d.op, 4u);
  EXPECT_EQ(d.shard, 1u);
  EXPECT_EQ(d.slot, 9u);
  EXPECT_EQ(d.lsn, 1234u);
  EXPECT_EQ(d.arg0, 11u);
  EXPECT_EQ(d.arg1, 22u);
  EXPECT_EQ(d.value_crc, 0xdeadbeefu);
  EXPECT_EQ(d.key, "some-key");
  EXPECT_EQ(d.slot_image, image);
  EXPECT_EQ(d.value, e.value);

  // Unlogged entry: no slot image, empty value (a delete).
  ReplEntryWire u;
  u.eflags = ReplEntryWire::kUnlogged;
  u.key = "k";
  std::string ub = repl_append_body(u);
  ASSERT_TRUE(parse_repl_append(ub, &u));
  EXPECT_TRUE(u.slot_image.empty());
  EXPECT_TRUE(u.value.empty());

  // The has-image marker only admits 0 or 1.
  std::string bad = repl_append_body(u);
  bad[64 + 1] = 2;  // 64-byte fixed prefix, 1-byte key, then the marker
  ReplEntryWire x;
  EXPECT_FALSE(parse_repl_append(bad, &x));
}

TEST(WireCodec, SnapChunkRoundTripsAndRejectsOverrun) {
  std::vector<SnapItemView> items = {
      {0, "alpha", "value-a"},
      {1, "beta", std::string_view("\x00\x01", 2)},
      {2, "gamma", ""},
      {3, "delta", "tail-piece", 4096},  // continuation piece of a big value
  };
  std::string b = snap_chunk_body(99, false, items);
  SnapChunk c;
  ASSERT_TRUE(parse_snap_chunk(b, &c));
  EXPECT_EQ(c.next_cursor, 99u);
  EXPECT_EQ(c.done, 0u);
  ASSERT_EQ(c.items.size(), 4u);
  EXPECT_EQ(c.items[0].key, "alpha");
  EXPECT_EQ(c.items[0].value, "value-a");
  EXPECT_EQ(c.items[0].offset, 0u);
  EXPECT_EQ(c.items[1].shard, 1u);
  EXPECT_EQ(c.items[1].value.size(), 2u);
  EXPECT_EQ(c.items[2].value, "");
  EXPECT_EQ(c.items[3].key, "delta");
  EXPECT_EQ(c.items[3].value, "tail-piece");
  EXPECT_EQ(c.items[3].offset, 4096u);

  // Exact-length framing: trailing garbage is a parse error, not ignored.
  std::string overrun = b + "x";
  EXPECT_FALSE(parse_snap_chunk(overrun, &c));

  std::string empty = snap_chunk_body(0, true, {});
  ASSERT_TRUE(parse_snap_chunk(empty, &c));
  EXPECT_EQ(c.done, 1u);
  EXPECT_TRUE(c.items.empty());
}

// Every replication body parser is exact-length: ANY strict prefix of a
// valid body must fail — a truncated frame can never half-parse into a
// plausible message.
TEST(WireCodec, TruncatedReplBodiesNeverParse) {
  std::string image(128, 'i');
  ReplEntryWire e;
  e.key = "key";
  e.slot_image = image;
  e.value = "value";
  std::vector<SnapItemView> items = {{0, "k", "v"}};
  struct Case {
    const char* what;
    std::string body;
    std::function<bool(std::string_view)> parse;
  };
  std::vector<Case> cases;
  cases.push_back({"heartbeat", heartbeat_body({1, 2, 3}),
                   [](std::string_view b) { Heartbeat m; return parse_heartbeat(b, &m); }});
  cases.push_back({"repl_ack", repl_ack_body({1, 2, 1}),
                   [](std::string_view b) { ReplAck m; return parse_repl_ack(b, &m); }});
  cases.push_back({"repl_hello", repl_hello_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) { ReplHello m; return parse_repl_hello(b, &m); }});
  cases.push_back({"subscribe_resp", repl_subscribe_resp_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) {
                     ReplSubscribeResult m;
                     return parse_repl_subscribe_resp(b, &m);
                   }});
  cases.push_back({"repl_append", repl_append_body(e),
                   [](std::string_view b) { ReplEntryWire m; return parse_repl_append(b, &m); }});
  cases.push_back({"snap_chunk", snap_chunk_body(5, true, items),
                   [](std::string_view b) { SnapChunk m; return parse_snap_chunk(b, &m); }});
  cases.push_back({"promote", promote_body({0, 1, 2, 3, 4}),
                   [](std::string_view b) { PromoteReq m; return parse_promote(b, &m); }});
  cases.push_back({"promote_resp", promote_resp_body({1, 2}),
                   [](std::string_view b) { PromoteResp m; return parse_promote_resp(b, &m); }});
  for (const Case& c : cases) {
    ASSERT_TRUE(c.parse(c.body)) << c.what;
    for (size_t cut = 0; cut < c.body.size(); cut++) {
      EXPECT_FALSE(c.parse(std::string_view(c.body.data(), cut)))
          << c.what << " parsed a prefix of " << cut << " bytes";
    }
  }
}

// Deterministic byte-flip fuzz over the repl bodies: every single-byte
// mutation either parses (the field was free-form) or fails — never
// crashes, never reads out of bounds (the length checks precede every
// substr).
TEST(WireCodec, ReplBodyMutationFuzzNeverCrashes) {
  std::string image(128, 'z');
  ReplEntryWire e;
  e.key = "mutate-me";
  e.slot_image = image;
  e.value = "some value bytes";
  std::vector<SnapItemView> items = {{3, "kk", "vv"}, {4, "x", "y"}};
  std::vector<std::string> bodies = {repl_append_body(e),
                                     snap_chunk_body(12, false, items)};
  for (const std::string& base : bodies) {
    for (size_t i = 0; i < base.size(); i++) {
      for (uint8_t delta : {0x01, 0x80, 0xff}) {
        std::string mut = base;
        mut[i] = (char)(mut[i] ^ delta);
        ReplEntryWire w;
        SnapChunk c;
        // Either verdict is fine; crashing is not.
        (void)parse_repl_append(mut, &w);
        (void)parse_snap_chunk(mut, &c);
      }
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Server + client end to end
// ---------------------------------------------------------------------------

struct ServerFixture {
  ShardedConfig cfg;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<Server> server;

  // `tweak` adjusts the store config (device latency, queue depth) before
  // the fleet is built.
  explicit ServerFixture(fault::FaultInjector* inj = nullptr,
                         pmem::Pool::Mode mode = pmem::Pool::Mode::kDirect,
                         ServerConfig srv_cfg = {},
                         const std::function<void(ShardedConfig&)>& tweak = nullptr) {
    cfg.num_shards = 2;
    cfg.pool_mode = mode;
    cfg.affinity = true;
    cfg.ckpt_workers = 1;
    cfg.shard.max_objects = 256;
    cfg.shard.num_blocks = 2048;
    cfg.shard.engine.log_slots = 64;
    cfg.shard.engine.arena_bytes = 1 << 20;
    cfg.shard.engine.background_checkpointing = true;  // watermark -> pool
    cfg.fault = inj;
    cfg.fault_shard = 0;
    if (inj != nullptr) inj->disarm();  // creation noise must not shift hits
    if (tweak) tweak(cfg);
    auto r = ShardedStore::create(cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    store = std::move(r).value();
    auto s = Server::start(store.get(), srv_cfg, inj);
    EXPECT_TRUE(s.is_ok()) << s.status().to_string();
    server = std::move(s).value();
  }

  std::unique_ptr<Client> connect() {
    auto c = Client::connect("127.0.0.1", server->port());
    EXPECT_TRUE(c.is_ok()) << c.status().to_string();
    return std::move(c).value();
  }

  // A namespace name homed on `shard` (the wire maps a namespace wholly
  // onto shard_of(name)).
  std::string ns_name_on_shard(int shard) {
    for (int i = 0;; i++) {
      std::string name = "tenant-" + std::to_string(i);
      if (store->shard_of(name) == shard) return name;
    }
  }

  // The server's loop count. Loop 0 deals accepted connections
  // round-robin, so on a fresh server the i-th connection opened (one
  // after another) lands on loop i % loops().
  int loops() { return (int)server->metrics().value("net_loops"); }
};

// The loop count the server derives: one per shard, at most one per CPU
// the process may run on.
int expected_loops(int shards) {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  return std::min(shards, CPU_COUNT(&set));
}

// A bare DSTP connection, for tests that watch the order of frames on the
// wire or must leave responses unread.
struct RawConn {
  int fd = -1;
  FrameParser parser;

  explicit RawConn(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    // A fixed small receive buffer (no autotuning), so unread responses
    // back up into the server's output queue.
    int rcvbuf = 64 * 1024;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, (sockaddr*)&addr, sizeof(addr)), 0);
    timeval tv{10, 0};  // a frame that never comes fails the test, no hang
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { close(fd); }

  bool send_all(const std::string& out) {
    return ::send(fd, out.data(), out.size(), 0) == (ssize_t)out.size();
  }
  // Next whole frame; false on EOF (and then `eof` is set) or after 10 s
  // without one.
  bool read_frame(Frame* f) {
    for (;;) {
      if (parser.next(f) == FrameParser::Next::kFrame) return true;
      char buf[64 * 1024];
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) eof = true;
      if (n <= 0) return false;
      parser.feed(buf, (size_t)n);
    }
  }
  bool eof = false;  // the server closed the connection
  uint32_t open_ns(const std::string& name) {
    std::string out;
    append_frame(&out, Op::kOpenNs, 1, 0, open_ns_body(name));
    Frame f;
    NamespaceInfo info;
    EXPECT_TRUE(send_all(out));
    EXPECT_TRUE(read_frame(&f));
    EXPECT_TRUE(parse_open_ns_resp(f.body, &info));
    return info.ns_id;
  }
};

TEST(NetEndToEnd, PutGetDeleteRoundTrip) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("alpha");
  ASSERT_TRUE(ns.is_ok()) << ns.status().to_string();
  EXPECT_GE(ns.value().ns_id, 1u);

  std::string value(3000, 'v');
  ASSERT_TRUE(client->put(ns.value().ns_id, "obj", value.data(), value.size()).is_ok());
  auto got = client->get(ns.value().ns_id, "obj");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value);

  // Zero-copy request path (server falls back transparently if the device
  // has no direct mapping) — bytes must be identical either way.
  auto zc = client->get(ns.value().ns_id, "obj", /*zero_copy=*/true);
  ASSERT_TRUE(zc.is_ok()) << zc.status().to_string();
  EXPECT_EQ(zc.value(), value);

  ASSERT_TRUE(client->del(ns.value().ns_id, "obj").is_ok());
  auto gone = client->get(ns.value().ns_id, "obj");
  ASSERT_FALSE(gone.is_ok());
  EXPECT_EQ(gone.status().code(), Code::kNotFound);  // Status round-trips
}

TEST(NetEndToEnd, NamespacesAreIsolatedTenants) {
  ServerFixture fx;
  auto client = fx.connect();
  auto a = client->open_namespace("tenant-a");
  auto b = client->open_namespace("tenant-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_NE(a.value().ns_id, b.value().ns_id);

  ASSERT_TRUE(client->put(a.value().ns_id, "k", "from-a", 6).is_ok());
  ASSERT_TRUE(client->put(b.value().ns_id, "k", "from-b", 6).is_ok());
  EXPECT_EQ(client->get(a.value().ns_id, "k").value(), "from-a");
  EXPECT_EQ(client->get(b.value().ns_id, "k").value(), "from-b");

  // Deleting in one tenant never leaks into the other.
  ASSERT_TRUE(client->del(a.value().ns_id, "k").is_ok());
  EXPECT_EQ(client->get(a.value().ns_id, "k").status().code(), Code::kNotFound);
  EXPECT_EQ(client->get(b.value().ns_id, "k").value(), "from-b");

  // Re-opening by name is idempotent and returns the same id + home shard.
  auto a2 = client->open_namespace("tenant-a");
  ASSERT_TRUE(a2.is_ok());
  EXPECT_EQ(a2.value().ns_id, a.value().ns_id);
  EXPECT_EQ(a2.value().shard, a.value().shard);
}

TEST(NetEndToEnd, MalformedNamespaceNamesAreRejected) {
  ServerFixture fx;
  auto client = fx.connect();
  EXPECT_EQ(client->open_namespace("").status().code(), Code::kInvalidArgument);
  EXPECT_EQ(client->open_namespace(std::string("a\x1f") + "b").status().code(),
            Code::kInvalidArgument);
  // The connection survives application-level errors.
  EXPECT_TRUE(client->open_namespace("fine").is_ok());
}

TEST(NetEndToEnd, PipelinedSubmissionsCompleteAndMatchById) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("pipe");
  ASSERT_TRUE(ns.is_ok());
  uint32_t id = ns.value().ns_id;

  constexpr int kN = 200;
  std::vector<uint64_t> put_ids;
  for (int i = 0; i < kN; i++) {
    std::string key = "k" + std::to_string(i);
    std::string val = "v" + std::to_string(i * i);
    auto r = client->submit_put(id, key, val.data(), val.size());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    put_ids.push_back(r.value());
  }
  EXPECT_TRUE(client->wait_all().is_ok());
  EXPECT_EQ(client->in_flight(), 0u);

  // Interleave gets and reap them in REVERSE order — completion matching
  // is by req_id, not arrival order.
  std::vector<uint64_t> get_ids;
  for (int i = 0; i < kN; i++) {
    auto r = client->submit_get(id, "k" + std::to_string(i));
    ASSERT_TRUE(r.is_ok());
    get_ids.push_back(r.value());
  }
  for (int i = kN - 1; i >= 0; i--) {
    std::string value;
    ASSERT_TRUE(client->wait(get_ids[(size_t)i], &value).is_ok());
    EXPECT_EQ(value, "v" + std::to_string(i * i));
  }
}

// SCRUB is shipped off-loop; a PUT pipelined BEHIND it must complete first.
// Sent on loop 1, its completion must come back to its own connection, not
// to the loop-0 one. Uses raw sockets: the completion order on the wire is
// the observable.
TEST(NetEndToEnd, SlowOpsCompleteOutOfOrder) {
  ServerFixture fx;
  RawConn first(fx.server->port());  // loop 0
  RawConn raw(fx.server->port());    // loop 1 when there are two
  uint32_t ns = raw.open_ns("ooo");

  // One write, two requests: SCRUB (req 5) then PUT (req 6).
  std::string out;
  append_frame(&out, Op::kScrub, 5, 0, "");
  append_frame(&out, Op::kPut, 6, 0, put_body(ns, "k", "v", 1));
  ASSERT_TRUE(raw.send_all(out));

  Frame f;
  ASSERT_TRUE(raw.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 6u) << "PUT should complete before the off-loop SCRUB";
  EXPECT_EQ(f.hdr.status, 0u);
  ASSERT_TRUE(raw.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 5u);
  ScrubSummary sum;
  ASSERT_TRUE(parse_scrub_resp(f.body, &sum));
  EXPECT_GE(sum.objects_scanned, 0u);

  // The loop-0 connection got nothing: its first frame answers its own
  // heartbeat.
  out.clear();
  append_frame(&out, Op::kHeartbeat, 9, 0, heartbeat_body({}));
  ASSERT_TRUE(first.send_all(out));
  ASSERT_TRUE(first.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 9u);
  EXPECT_EQ(f.hdr.op, Op::kHeartbeat);
}

TEST(NetEndToEnd, MetricsScrapeOverTheWire) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("m");
  ASSERT_TRUE(ns.is_ok());
  ASSERT_TRUE(client->put(ns.value().ns_id, "k", "v", 1).is_ok());

  auto json = client->metrics(0);
  ASSERT_TRUE(json.is_ok()) << json.status().to_string();
  // One merged scrape: the server's own net_* series next to the store's.
  EXPECT_NE(json.value().find("net_requests_total"), std::string::npos);
  EXPECT_NE(json.value().find("net_connections"), std::string::npos);
  EXPECT_NE(json.value().find("dstore_puts_total"), std::string::npos);

  auto prom = client->metrics(1);
  ASSERT_TRUE(prom.is_ok());
  EXPECT_NE(prom.value().find("# TYPE"), std::string::npos);

  Result<std::string> bad = client->metrics(7);
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), Code::kInvalidArgument);
}

TEST(NetEndToEnd, ScrubReportsMergedFleetCounters) {
  ServerFixture fx;
  auto client = fx.connect();
  auto ns = client->open_namespace("s");
  ASSERT_TRUE(ns.is_ok());
  for (int i = 0; i < 20; i++) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client->put(ns.value().ns_id, key, "x", 1).is_ok());
  }
  auto sum = client->scrub();
  ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
  EXPECT_GE(sum.value().objects_scanned, 20u);
  EXPECT_EQ(sum.value().checksum_failures, 0u);
}

TEST(NetEndToEnd, ProtocolGarbageGetsErrorFrameThenDisconnect) {
  ServerFixture fx;
  RawConn raw(fx.server->port());
  ASSERT_TRUE(raw.send_all("this is not a DSTP frame at all........."));

  // The server flushes one error frame (req 0), then closes.
  Frame f;
  ASSERT_TRUE(raw.read_frame(&f));
  EXPECT_NE(f.hdr.status, 0u);
  EXPECT_EQ(f.hdr.req_id, 0u);
  EXPECT_FALSE(raw.read_frame(&f));
  EXPECT_TRUE(raw.eof) << "no EOF after the error frame: the server kept the connection";
}

TEST(NetEndToEnd, HeartbeatIsAnsweredByAPlainServer) {
  ServerFixture fx;
  auto client = fx.connect();
  Frame resp;
  ASSERT_TRUE(client->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.op, Op::kHeartbeat);
  EXPECT_EQ(resp.hdr.status, 0u);
  ReplAck ack;
  ASSERT_TRUE(parse_repl_ack(resp.body, &ack));
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.epoch, 0u);  // repl-less server echoes zeros

  // The other replication opcodes need an attached node; a malformed
  // heartbeat is a per-request error. The connection survives all three.
  ASSERT_TRUE(client->call(Op::kReplSubscribe, repl_hello_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kUnsupported);
  ASSERT_TRUE(client->call(Op::kPromote, promote_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kUnsupported);
  ASSERT_TRUE(client->call(Op::kHeartbeat, "abc", &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kInvalidArgument);
  ASSERT_TRUE(client->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, 0u);

  auto json = client->metrics(0);
  ASSERT_TRUE(json.is_ok());
  EXPECT_NE(json.value().find("net_heartbeats_total"), std::string::npos);
}

TEST(NetEndToEnd, IdleReaperDropsSilentConnectionsButHeartbeatsKeepAlive) {
  ServerConfig scfg;
  scfg.idle_timeout_ms = 150;
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, scfg);
  auto chatty = fx.connect();
  auto quiet = fx.connect();
  auto ns = chatty->open_namespace("alive");
  ASSERT_TRUE(ns.is_ok());

  // `quiet` sends nothing; `chatty` heartbeats through four idle windows
  // (HEARTBEAT frames refresh the reaper clock like any other request).
  for (int i = 0; i < 12; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Frame resp;
    ASSERT_TRUE(chatty->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  }
  EXPECT_TRUE(chatty->put(ns.value().ns_id, "k", "v", 1).is_ok());
  Status dead = quiet->put(ns.value().ns_id, "k", "v", 1);
  EXPECT_FALSE(dead.is_ok()) << "idle connection survived the reaper";
  EXPECT_GE(fx.server->metrics()
                .counter("net_idle_reaped_total", "connections dropped by the idle reaper")
                ->value(),
            1u);
}

TEST(NetEndToEnd, ClientReconnectsWithBackoffAfterServerRestart) {
  ServerFixture fx;
  obs::MetricsRegistry reg;
  ClientConfig ccfg;
  ccfg.max_reconnect_attempts = 10;
  ccfg.reconnect_backoff_ms = 1;
  ccfg.reconnect_backoff_max_ms = 8;
  ccfg.metrics = &reg;
  auto c = Client::connect("127.0.0.1", fx.server->port(), ccfg);
  ASSERT_TRUE(c.is_ok());
  Client& client = *c.value();
  auto ns = client.open_namespace("re");
  ASSERT_TRUE(ns.is_ok());
  ASSERT_TRUE(client.put(ns.value().ns_id, "k", "v1", 2).is_ok());

  uint16_t port = fx.server->port();
  fx.server->stop();
  fx.server.reset();
  // The call that discovers the dead connection fails — a lost write is
  // ambiguous and must never be silently replayed on a new connection.
  EXPECT_FALSE(client.put(ns.value().ns_id, "k", "v2", 2).is_ok());

  ServerConfig scfg;
  scfg.port = port;
  auto srv2 = Server::start(fx.store.get(), scfg);
  ASSERT_TRUE(srv2.is_ok()) << srv2.status().to_string();
  // The next call re-dials under the backoff policy; state written before
  // the restart is served by the same store.
  auto ns2 = client.open_namespace("re");
  ASSERT_TRUE(ns2.is_ok()) << ns2.status().to_string();
  auto got = client.get(ns2.value().ns_id, "k");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "v1");
  EXPECT_GE(reg.counter("net_client_reconnects_total", "successful client reconnects")
                ->value(),
            1u);
}

TEST(NetEndToEnd, CallTimeoutKillsTheConnectionAndCountsIt) {
  // A listener that never accepts: the TCP handshake completes via the
  // backlog but no response ever comes back.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(lfd, (sockaddr*)&addr, sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, (sockaddr*)&addr, &len), 0);

  obs::MetricsRegistry reg;
  ClientConfig ccfg;
  ccfg.call_timeout_ms = 80;
  ccfg.metrics = &reg;
  auto c = Client::connect("127.0.0.1", ntohs(addr.sin_port), ccfg);
  ASSERT_TRUE(c.is_ok()) << c.status().to_string();
  auto t0 = std::chrono::steady_clock::now();
  auto got = c.value()->get(1, "k");
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Code::kIoError);
  EXPECT_GE(elapsed_ms, 80);
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_EQ(reg.counter("net_client_timeouts_total", "sync calls that hit call_timeout_ms")
                ->value(),
            1u);
  // The timed-out connection is dead by contract (framing abandoned).
  EXPECT_FALSE(c.value()->get(1, "k").is_ok());
  close(lfd);
}

// REPL_ACK only ever travels server -> client. Sent as a request it gets an
// explicit UNSUPPORTED on its own req_id, and the connection stays up.
TEST(NetEndToEnd, ReplAckRequestIsUnsupported) {
  ServerFixture fx;
  auto client = fx.connect();
  Frame resp;
  ASSERT_TRUE(client->call(Op::kReplAck, repl_ack_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.op, Op::kReplAck);
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kUnsupported);
  ASSERT_TRUE(client->call(Op::kHeartbeat, heartbeat_body({}), &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, 0u);
}

// ---------------------------------------------------------------------------
// Several event loops: hand-off, shared namespaces, drain
// ---------------------------------------------------------------------------

TEST(NetMultiLoop, PipelinedConnectionsSpreadOverLoopsKeepOrder) {
  ServerFixture fx;
  ASSERT_EQ(fx.loops(), expected_loops(fx.cfg.num_shards));
  if (fx.loops() < 2) GTEST_SKIP() << "one CPU in the affinity mask: one loop";
  constexpr int kConns = 8;
  std::vector<std::unique_ptr<Client>> clients;
  // Round-robin hand-off: every loop holds kConns / loops() of them.
  for (int i = 0; i < kConns; i++) clients.push_back(fx.connect());

  // Each connection pipelines put/get pairs on one key, all connections at
  // once. A get returning the put just before it shows the connection's
  // requests ran in order; every id must be answered.
  constexpr int kPairs = 100;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kConns);
  for (int t = 0; t < kConns; t++) {
    threads.emplace_back([&, t] {
      Client& c = *clients[(size_t)t];
      auto ns = c.open_namespace("pipe-" + std::to_string(t % 3));
      if (!ns.is_ok()) return void(errors[(size_t)t] = ns.status().to_string());
      uint32_t id = ns.value().ns_id;
      std::string key = "conn" + std::to_string(t);
      std::vector<std::pair<uint64_t, uint64_t>> ids;  // (put, get)
      for (int i = 0; i < kPairs; i++) {
        std::string val = key + "-v" + std::to_string(i);
        auto p = c.submit_put(id, key, val.data(), val.size());
        auto g = c.submit_get(id, key);
        if (!p.is_ok() || !g.is_ok()) return void(errors[(size_t)t] = "submit failed");
        ids.emplace_back(p.value(), g.value());
      }
      for (int i = 0; i < kPairs; i++) {
        std::string got;
        Status ps = c.wait(ids[(size_t)i].first);
        Status gs = c.wait(ids[(size_t)i].second, &got);
        std::string want = key + "-v" + std::to_string(i);
        if (!ps.is_ok() || !gs.is_ok() || got != want) {
          errors[(size_t)t] = "pair " + std::to_string(i) + ": got '" + got + "' want '" +
                              want + "' " + ps.to_string() + " " + gs.to_string();
          return;
        }
      }
      if (c.in_flight() != 0) errors[(size_t)t] = "responses left unmatched";
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kConns; t++) EXPECT_EQ(errors[(size_t)t], "") << "connection " << t;
}

// ns_ids are server-wide: the registry is shared by every loop.
TEST(NetMultiLoop, NamespaceIsSharedAcrossLoops) {
  ServerFixture fx;
  if (fx.loops() < 2) GTEST_SKIP() << "one CPU in the affinity mask: one loop";
  auto a = fx.connect();  // loop 0
  auto b = fx.connect();  // loop 1
  ASSERT_TRUE(a->open_namespace("a-first").is_ok());  // ids are not per loop
  auto na = a->open_namespace("shared");
  auto nb = b->open_namespace("shared");
  ASSERT_TRUE(na.is_ok());
  ASSERT_TRUE(nb.is_ok());
  EXPECT_EQ(na.value().ns_id, nb.value().ns_id);
  EXPECT_EQ(na.value().shard, nb.value().shard);

  uint32_t id = na.value().ns_id;
  ASSERT_TRUE(a->put(id, "from-a", "1", 1).is_ok());
  ASSERT_TRUE(b->put(id, "from-b", "2", 1).is_ok());
  EXPECT_EQ(b->get(id, "from-a").value(), "1");
  EXPECT_EQ(a->get(id, "from-b").value(), "2");
  ASSERT_TRUE(b->del(id, "from-a").is_ok());
  EXPECT_EQ(a->get(id, "from-a").status().code(), Code::kNotFound);
}

// drain_stop with responses still queued on every loop: each loop flushes
// its own output (GET bodies too large for the socket buffers, plus an
// off-loop SCRUB) before the server stops.
TEST(NetMultiLoop, DrainStopFlushesEveryLoop) {
  ServerFixture fx;
  int loops = fx.loops();
  std::vector<std::unique_ptr<RawConn>> conns;
  // One connection per loop (round-robin hand-off).
  for (int i = 0; i < loops; i++) conns.push_back(std::make_unique<RawConn>(fx.server->port()));

  constexpr int kGets = 128;
  const std::string value(64 * 1024, 'd');
  for (auto& c : conns) {
    uint32_t ns = c->open_ns("drain");
    std::string out;
    append_frame(&out, Op::kPut, 2, 0, put_body(ns, "big", value.data(), value.size()));
    ASSERT_TRUE(c->send_all(out));
    Frame f;
    ASSERT_TRUE(c->read_frame(&f));
    ASSERT_EQ(f.hdr.status, 0u);
    out.clear();
    append_frame(&out, Op::kScrub, 3, 0, "");
    for (int i = 0; i < kGets; i++)
      append_frame(&out, Op::kGet, 10 + (uint64_t)i, 0, key_body(ns, "big"));
    ASSERT_TRUE(c->send_all(out));
  }
  // Every request is dispatched before the drain starts; nothing is read.
  const double dispatched = (double)loops * (2 + 1 + kGets);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->metrics().value("net_requests_total") < dispatched &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(fx.server->metrics().value("net_requests_total"), dispatched);

  constexpr uint32_t kTimeoutMs = 20000;
  auto t0 = std::chrono::steady_clock::now();
  std::thread drainer([&] { fx.server->drain_stop(kTimeoutMs); });
  for (auto& c : conns) {
    int gets = 0;
    bool scrub = false;
    Frame f;
    while (c->read_frame(&f)) {
      EXPECT_EQ(f.hdr.status, 0u) << "req " << f.hdr.req_id;
      if (f.hdr.op == Op::kScrub) {
        scrub = true;
      } else {
        EXPECT_EQ(f.body.size(), value.size());
        gets++;
      }
    }
    EXPECT_TRUE(c->eof) << "connection not closed by the drain";
    EXPECT_EQ(gets, kGets);
    EXPECT_TRUE(scrub) << "off-loop completion lost in the drain";
  }
  drainer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(kTimeoutMs))
      << "drain hit its deadline instead of completing";
  EXPECT_FALSE(fx.server->crashed());
}

// ---------------------------------------------------------------------------
// Deferred device reads: a GET's response is held to its read's deadline
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

// A device whose every read takes `read_ns` of emulated latency; writes are
// free, so preloading is fast.
std::function<void(ShardedConfig&)> slow_reads(uint64_t read_ns, uint32_t ssd_qd = 16) {
  return [read_ns, ssd_qd](ShardedConfig& c) {
    c.latency.ssd_read_base_ns = read_ns;
    c.shard.ssd_qd = ssd_qd;
  };
}

// Store `n` keys k0.. through `raw` (acks read) on namespace `ns`.
void preload(RawConn& raw, uint32_t ns, int n) {
  std::string out;
  for (int i = 0; i < n; i++) {
    std::string k = "k" + std::to_string(i), v = "value-" + std::to_string(i);
    append_frame(&out, Op::kPut, 100 + (uint64_t)i, 0, put_body(ns, k, v.data(), v.size()));
  }
  ASSERT_TRUE(raw.send_all(out));
  Frame f;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(raw.read_frame(&f));
    ASSERT_EQ(f.hdr.status, 0u);
  }
}

std::string pipelined_gets(uint32_t ns, int n) {
  std::string out;
  for (int i = 0; i < n; i++)
    append_frame(&out, Op::kGet, 10 + (uint64_t)i, 0, key_body(ns, "k" + std::to_string(i)));
  return out;
}

// Waits until the server has held `n` responses in total.
bool await_deferred(Server& srv, double n) {
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (srv.metrics().value("net_reads_deferred_total") < n && Clock::now() < deadline) {
  }
  return srv.metrics().value("net_reads_deferred_total") >= n;
}

// Long enough that host scheduling noise cannot blur one read latency
// into two; eight serial reads would take 160 ms.
constexpr uint64_t kReadNs = 20'000'000;

// Eight pipelined GETs overlap their device reads on the loop's queue
// pair (all answered within 2 x the latency, where a loop that waited each
// read out would need 8 x), and none is answered before its read is due.
TEST(NetDeferredRead, PipelinedGetsOverlapAndAreHeldToTheDeadline) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, slow_reads(kReadNs));
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("held");
  constexpr int kGets = 8;
  preload(raw, ns, kGets);
  auto t0 = Clock::now();
  ASSERT_TRUE(raw.send_all(pipelined_gets(ns, kGets)));
  Frame f;
  for (int i = 0; i < kGets; i++) {
    ASSERT_TRUE(raw.read_frame(&f));
    auto at = Clock::now() - t0;
    EXPECT_EQ(f.hdr.req_id, 10u + (uint64_t)i) << "responses left out of order";
    EXPECT_EQ(f.body, "value-" + std::to_string(i));
    EXPECT_GE(at, std::chrono::nanoseconds(kReadNs)) << "GET " << i << " answered early";
    EXPECT_LT(at, std::chrono::nanoseconds(2 * kReadNs)) << "GET " << i << " reads not overlapped";
  }
  EXPECT_EQ(fx.server->metrics().value("net_reads_deferred_total"), (double)kGets);
}

// The loop does not wait on held reads: a HEARTBEAT on a second connection
// of the same loop is answered while eight reads are still in flight.
TEST(NetDeferredRead, LoopServesOtherConnectionsWhileReadsAreHeld) {
  constexpr uint64_t kSlowNs = 200'000'000;  // far beyond any scheduling hiccup
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, slow_reads(kSlowNs));
  std::vector<std::unique_ptr<RawConn>> conns;
  // Round-robin hand-off: connection 0 and connection loops() share loop 0.
  for (int i = 0; i <= fx.loops(); i++)
    conns.push_back(std::make_unique<RawConn>(fx.server->port()));
  RawConn& reader = *conns.front();
  RawConn& other = *conns.back();
  uint32_t ns = reader.open_ns("held");
  constexpr int kGets = 8;
  preload(reader, ns, kGets);
  auto t0 = Clock::now();
  ASSERT_TRUE(reader.send_all(pipelined_gets(ns, kGets)));
  ASSERT_TRUE(await_deferred(*fx.server, kGets));

  std::string out;
  append_frame(&out, Op::kHeartbeat, 77, 0, heartbeat_body({}));
  ASSERT_TRUE(other.send_all(out));
  Frame f;
  ASSERT_TRUE(other.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 77u);
  EXPECT_LT(Clock::now() - t0, std::chrono::nanoseconds(kSlowNs))
      << "the heartbeat waited for the held reads";
  for (int i = 0; i < kGets; i++) {
    ASSERT_TRUE(reader.read_frame(&f));
    EXPECT_EQ(f.body, "value-" + std::to_string(i));
  }
  EXPECT_GE(Clock::now() - t0, std::chrono::nanoseconds(kSlowNs));
}

// A loop is one NVMe queue pair of the shard's depth: with ssd_qd = 2,
// eight GETs go to the device two at a time, four latencies end to end.
TEST(NetDeferredRead, QueueDepthBoundsReadsInFlight) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, slow_reads(kReadNs, 2));
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("held");
  constexpr int kGets = 8;
  preload(raw, ns, kGets);
  auto t0 = Clock::now();
  ASSERT_TRUE(raw.send_all(pipelined_gets(ns, kGets)));
  Frame f;
  for (int i = 0; i < kGets; i++) {
    ASSERT_TRUE(raw.read_frame(&f));
    EXPECT_EQ(f.body, "value-" + std::to_string(i));
  }
  EXPECT_GE(Clock::now() - t0, std::chrono::nanoseconds(4 * kReadNs));
}

// Per-connection order survives the hold: a PUT pipelined behind a held
// GET is answered after it, though the PUT finished first.
TEST(NetDeferredRead, PutBehindAHeldGetIsAnsweredAfterIt) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, slow_reads(kReadNs));
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("held");
  preload(raw, ns, 1);
  std::string out;
  append_frame(&out, Op::kGet, 5, 0, key_body(ns, "k0"));
  append_frame(&out, Op::kPut, 6, 0, put_body(ns, "k1", "v", 1));
  auto t0 = Clock::now();
  ASSERT_TRUE(raw.send_all(out));
  Frame f;
  ASSERT_TRUE(raw.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 5u) << "the PUT overtook the held GET";
  EXPECT_EQ(f.body, "value-0");
  ASSERT_TRUE(raw.read_frame(&f));
  EXPECT_EQ(f.hdr.req_id, 6u);
  EXPECT_EQ(f.hdr.status, 0u);
  EXPECT_GE(Clock::now() - t0, std::chrono::nanoseconds(kReadNs));
}

// drain_stop counts held bytes as pending output: it waits them out and
// sends them before closing.
TEST(NetDeferredRead, DrainStopSendsHeldResponses) {
  constexpr uint64_t kSlowNs = 50'000'000;
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, slow_reads(kSlowNs));
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("held");
  constexpr int kGets = 4;
  preload(raw, ns, kGets);
  ASSERT_TRUE(raw.send_all(pipelined_gets(ns, kGets)));
  ASSERT_TRUE(await_deferred(*fx.server, kGets));
  std::thread drainer([&] { fx.server->drain_stop(10000); });
  Frame f;
  int got = 0;
  while (raw.read_frame(&f)) {
    EXPECT_EQ(f.body, "value-" + std::to_string(got));
    got++;
  }
  drainer.join();
  EXPECT_EQ(got, kGets);
  EXPECT_TRUE(raw.eof);
}

#if !defined(DSTORE_FAULT_INJECTION_DISABLED)

// A read whose submission fails takes the store's synchronous retry path:
// the right value, and nothing held.
TEST(NetDeferredRead, TransientReadErrorRetriesSynchronously) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kDirect, {}, slow_reads(kReadNs));
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns(fx.ns_name_on_shard(fx.cfg.fault_shard));
  preload(raw, ns, 1);
  fault::FaultPlan plan;
  plan.add({"ssd.read", 1, fault::FaultType::kError, 0, 1});
  inj.set_plan(plan);
  inj.arm();
  ASSERT_TRUE(raw.send_all(pipelined_gets(ns, 1)));
  Frame f;
  ASSERT_TRUE(raw.read_frame(&f));
  inj.disarm();
  EXPECT_EQ(f.hdr.status, 0u);
  EXPECT_EQ(f.body, "value-0");
  EXPECT_EQ(fx.store->shard(fx.cfg.fault_shard).metrics().counter_value("ssd_io_retries_total"),
            1u);
  EXPECT_EQ(fx.server->metrics().value("net_reads_deferred_total"), 0.0);
}

#endif  // !DSTORE_FAULT_INJECTION_DISABLED

// ---------------------------------------------------------------------------
// Poll or park (DESIGN.md §15.2): a loop polls while it saw an event in the
// last millisecond and parks after a millisecond without one
// ---------------------------------------------------------------------------

void one_shard(ShardedConfig& c) { c.num_shards = 1; }

double parks(Server& srv) { return srv.metrics().value("net_loop_parks_total"); }

uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return (uint64_t)ts.tv_sec * 1'000'000'000u + (uint64_t)ts.tv_nsec;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// A loop parks soon after its last event, and an idle server burns next
// to no CPU.
TEST(NetPollMode, IdleLoopsPark) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, one_shard);
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("idle");
  preload(raw, ns, 1);
  ASSERT_TRUE(raw.send_all(pipelined_gets(ns, 1)));
  double before = parks(*fx.server);
  Frame f;
  ASSERT_TRUE(raw.read_frame(&f));
  ASSERT_EQ(f.body, "value-0");
  auto t0 = Clock::now();
  while (parks(*fx.server) == before && Clock::now() - t0 < std::chrono::milliseconds(20))
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  EXPECT_GT(parks(*fx.server), before) << "the loop did not park within 20 ms of its last event";

  uint64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  uint64_t used = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  EXPECT_LT(used, 30'000'000u) << "an idle server used " << used / 1000 << " us of CPU in 300 ms";
}

// Requests 200 us apart arrive well inside the park window: the loop
// keeps polling, and parks stay under 10% of the requests.
TEST(NetPollMode, PacedRequestsKeepTheLoopPolling) {
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, one_shard);
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("paced");
  preload(raw, ns, 1);
  constexpr int kGets = 500;
  const std::string req = pipelined_gets(ns, 1);
  double before = parks(*fx.server);
  auto next = Clock::now();
  Frame f;
  for (int i = 0; i < kGets; i++) {
    // Spin to the slot: a sleeping client's own wake-up could outlast
    // the window and make the loop park for reasons of the test's own.
    while (Clock::now() < next) {
    }
    next += std::chrono::microseconds(200);
    ASSERT_TRUE(raw.send_all(req));
    ASSERT_TRUE(raw.read_frame(&f));
    ASSERT_EQ(f.body, "value-0");
  }
  EXPECT_LT(parks(*fx.server) - before, 0.1 * kGets);
}

// A polling loop gives up its CPU to the scheduler's fair share: a
// CPU-bound thread pinned to the loop's CPU keeps a share of it, and the
// loop keeps serving a client that streams requests from another CPU.
TEST(NetPollMode, PollingLoopYieldsItsCpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  std::vector<int> cpus;
  for (int i = 0; i < CPU_SETSIZE && cpus.size() < 2; i++)
    if (CPU_ISSET(i, &mask)) cpus.push_back(i);
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  struct RestoreMask {
    cpu_set_t mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof(mask), &mask); }
  } restore{mask};
  // The loop (and the counter) inherit this thread's one-CPU mask.
  ASSERT_TRUE(pin_to_cpu(cpus[0]));
  ServerFixture fx(nullptr, pmem::Pool::Mode::kDirect, {}, one_shard);
  ASSERT_EQ(fx.loops(), 1);
  RawConn raw(fx.server->port());
  uint32_t ns = raw.open_ns("shared-cpu");
  preload(raw, ns, 1);

  std::atomic<bool> stop{false};
  std::atomic<int> gets{0};
  uint64_t counter_cpu = 0;
  auto t0 = Clock::now();
  std::thread counter([&] {
    uint64_t c0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    volatile uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) n = n + 1;
    counter_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - c0;
  });
  std::thread client([&] {
    if (!pin_to_cpu(cpus[1])) return;
    const std::string req = pipelined_gets(ns, 1);
    Frame f;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!raw.send_all(req) || !raw.read_frame(&f)) return;
      gets.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  counter.join();
  client.join();
  double wall = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  // On a 4-vCPU VM the loop answers 8-13k gets in 300 ms on its own CPU
  // and 3-6k sharing it with the counter; a loop that gives away a whole
  // scheduler slice on every empty poll pass answers under a hundred.
  EXPECT_GE(gets.load(), 1000) << "the loop starved its client";
  EXPECT_GE(counter_cpu / wall, 0.25)
      << "the counter got " << 100 * counter_cpu / wall << "% of the loop's CPU";
}

// ---------------------------------------------------------------------------
// Replication over the wire: the epoch fence as the divergence oracle
// ---------------------------------------------------------------------------

// A follower node behind a real server must bounce a deposed primary's
// appends — the "split-brain divergence" forbidden outcome — while its
// store keeps serving the pre-fork value, and client writes bounce with
// READ_ONLY (followers are read-only replicas).
TEST(ReplWire, EpochFenceRejectsAStalePrimaryOverTheWire) {
  repl::NodeConfig ncfg;
  ncfg.node_id = 2;
  ncfg.initial_primary = 1;
  auto node = std::make_unique<repl::Node>(ncfg);
  ShardedConfig scfg;
  scfg.num_shards = 1;
  scfg.shard.max_objects = 64;
  scfg.shard.num_blocks = 512;
  scfg.shard.engine.log_slots = 64;
  scfg.repl_sink = node.get();
  auto store = ShardedStore::create(scfg);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  node->attach_store(store.value().get());
  auto srv = Server::start(store.value().get(), ServerConfig{}, nullptr, node.get());
  ASSERT_TRUE(srv.is_ok()) << srv.status().to_string();
  auto c = Client::connect("127.0.0.1", srv.value()->port());
  ASSERT_TRUE(c.is_ok());
  Client& client = *c.value();

  auto append = [&](uint64_t epoch, uint64_t seq, std::string_view key,
                    std::string_view value, ReplAck* ack) {
    ReplEntryWire w;
    w.epoch = epoch;
    w.seq = seq;
    w.entry_epoch = epoch;
    w.op = (uint8_t)dipper::OpType::kPut;
    w.eflags = ReplEntryWire::kUnlogged;
    w.key = key;
    w.value = value;
    w.value_crc = crc32c(value.data(), value.size());
    Frame resp;
    Status s = client.call(Op::kReplAppend, repl_append_body(w), &resp);
    if (s.is_ok()) {
      EXPECT_EQ(resp.hdr.op, Op::kReplAck);
      EXPECT_EQ(resp.hdr.status, 0u);
      EXPECT_TRUE(parse_repl_ack(resp.body, ack));
    }
    return s;
  };
  auto local_read = [&](std::string_view key) {
    char buf[64];
    auto r = node->get(key, buf, sizeof(buf));
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::string(buf, r.is_ok() ? r.value() : 0);
  };

  ReplAck ack;
  ASSERT_TRUE(append(1, 1, "k", "epoch-1-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.applied_seq, 1u);
  EXPECT_EQ(local_read("k"), "epoch-1-value");

  // A newer primary (node 9, epoch 3) announces itself by heartbeat.
  Frame resp;
  ASSERT_TRUE(client.call(Op::kHeartbeat, heartbeat_body({3, 9, 1}), &resp).is_ok());
  ReplAck hb_ack;
  ASSERT_TRUE(parse_repl_ack(resp.body, &hb_ack));
  EXPECT_EQ(hb_ack.epoch, 3u);

  // The fence: the deposed epoch-1 primary's append bounces with the
  // higher epoch and the store never forks.
  ASSERT_TRUE(append(1, 2, "k", "stale-fork-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.epoch, 3u);
  EXPECT_EQ(local_read("k"), "epoch-1-value");

  // The legitimate epoch-3 primary streams on from seq 2.
  ASSERT_TRUE(append(3, 2, "k", "epoch-3-value", &ack).is_ok());
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(local_read("k"), "epoch-3-value");

  // Follower write gating over the wire: reads fine, writes READ_ONLY.
  auto ns = client.open_namespace("t");
  ASSERT_TRUE(ns.is_ok());
  Status w = client.put(ns.value().ns_id, "x", "y", 1);
  EXPECT_EQ(w.code(), Code::kReadOnly);

  // A malformed append body is a per-request error, not a dropped link.
  ASSERT_TRUE(client.call(Op::kReplAppend, "zz", &resp).is_ok());
  EXPECT_EQ(resp.hdr.status, (uint8_t)Code::kInvalidArgument);
  ASSERT_TRUE(client.call(Op::kHeartbeat, heartbeat_body({3, 9, 2}), &resp).is_ok());
}

// ---------------------------------------------------------------------------
// Server crash rig (fault-injection builds only)
// ---------------------------------------------------------------------------
#if !defined(DSTORE_FAULT_INJECTION_DISABLED)

// Kill the live server mid-checkpoint via a fault plan, then hold recovery
// to the oracle: every ACKED write survives (zero acked-write loss); the
// single op in flight at the crash is unknown-by-contract. The writes come
// from two connections on two loops, so whichever loop sees the crash
// first must stop the other before it acks anything more. A third
// connection keeps reading the key being written: every value it was
// sent must survive too — a read served on one loop must not leak a write
// another loop made after the freeze. All old clients observe a clean
// connection error (not a hang, not a garbage frame), and a new server
// over the recovered store serves the verified state.
TEST(NetCrashRig, KillMidCheckpointLosesNoAckedWrite) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kCrashSim);
  EXPECT_EQ(fx.loops(), expected_loops(fx.cfg.num_shards));
  // Round-robin hand-off: writers on loops 0 and 1, the reader on loop 0.
  std::unique_ptr<Client> clients[3] = {fx.connect(), fx.connect(), fx.connect()};
  Client& reader = *clients[2];

  // The tenant must live on the faulted shard for the plan to bite.
  std::string ns_name = fx.ns_name_on_shard(fx.cfg.fault_shard);
  uint32_t id = 0;
  for (auto& c : clients) {
    auto ns = c->open_namespace(ns_name);
    ASSERT_TRUE(ns.is_ok());
    id = ns.value().ns_id;
  }

  inj.set_plan(fault::FaultPlan::crash_at("engine.ckpt.begin", 1));
  inj.arm();

  // Hammer puts, alternating writer connections, until the crash cuts one.
  // Acked => in oracle. Meanwhile the reader gets the key in flight; each
  // value it is sent is one a client saw.
  std::atomic<int> writing{0};  // index of the put being issued
  std::atomic<bool> writers_done{false};
  std::atomic<int> reads_done{0};
  std::atomic<bool> reader_gone{false};
  std::map<std::string, std::string> seen;
  std::thread reader_thread([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      std::string key = "obj-" + std::to_string(writing.load(std::memory_order_acquire));
      auto r = reader.get(id, key);
      if (r.is_ok()) {
        seen[key] = r.value();
      } else if (r.status().code() != Code::kNotFound) {
        reader_gone.store(true, std::memory_order_release);
        return;  // the server went away
      }
      reads_done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  std::map<std::string, std::string> oracle;
  std::string pending_key;  // the unacked op in flight at the crash
  for (int i = 0; i < 20000; i++) {
    std::string key = "obj-" + std::to_string(i);
    std::string val(1 + (size_t)(i % 700), (char)('a' + i % 26));
    writing.store(i, std::memory_order_release);
    Status s = clients[i % 2]->put(id, key, val.data(), val.size());
    if (!s.is_ok()) {
      pending_key = key;
      break;
    }
    oracle[key] = val;
    if (i == 0) {
      // Handshake: the next put waits until a get issued after this ack
      // has come back, so the reader sees at least one value (the first
      // get to complete may have been issued before the ack).
      int r0 = reads_done.load(std::memory_order_acquire);
      while (reads_done.load(std::memory_order_acquire) < r0 + 2 &&
             !reader_gone.load(std::memory_order_acquire))
        std::this_thread::yield();
    }
  }
  writers_done.store(true, std::memory_order_release);
  reader_thread.join();
  ASSERT_TRUE(inj.crashed()) << "fault plan never fired — no checkpoint started?";
  ASSERT_FALSE(pending_key.empty()) << "client never observed the crash";
  EXPECT_FALSE(seen.empty()) << "the reader never saw a value";

  // Every old connection reports a clean error on every later call, reads
  // included: the crash stopped every loop, not just the one that saw it.
  for (auto& c : clients) {
    EXPECT_EQ(c->get(id, "obj-0").status().code(), Code::kIoError);
    Status after = c->put(id, "post-crash", "x", 1);
    EXPECT_FALSE(after.is_ok());
    EXPECT_EQ(after.code(), Code::kIoError);
  }

  fx.server->stop();
  EXPECT_TRUE(fx.server->crashed());

  // Power-fail the fleet at the frozen image and recover.
  inj.disarm();
  ASSERT_TRUE(fx.store->crash_and_recover_all().is_ok());

  // Zero acked-write loss: every acked put is present with exact bytes.
  int home = fx.cfg.fault_shard;
  std::vector<char> buf(1 << 12);
  for (const auto& [key, val] : oracle) {
    std::string full = ns_name + '\x1f' + key;
    auto r = fx.store->get_on(nullptr, home, full, buf.data(), buf.size());
    ASSERT_TRUE(r.is_ok()) << "acked write lost: " << key << " — " << r.status().to_string();
    ASSERT_EQ(r.value(), val.size()) << "acked write truncated: " << key;
    EXPECT_EQ(std::string(buf.data(), r.value()), val) << "acked write corrupt: " << key;
  }
  // Nor is any value a client read: each was served before the freeze.
  for (const auto& [key, val] : seen) {
    std::string full = ns_name + '\x1f' + key;
    auto r = fx.store->get_on(nullptr, home, full, buf.data(), buf.size());
    ASSERT_TRUE(r.is_ok()) << "value a client read was lost: " << key << " — "
                           << r.status().to_string();
    EXPECT_EQ(std::string(buf.data(), r.value()), val) << "read value differs: " << key;
  }

  // Reconnect-to-verified-state: a fresh server over the recovered store
  // serves the oracle to a fresh client.
  auto srv2 = Server::start(fx.store.get(), ServerConfig{});
  ASSERT_TRUE(srv2.is_ok());
  auto c2 = Client::connect("127.0.0.1", srv2.value()->port());
  ASSERT_TRUE(c2.is_ok());
  auto ns2 = c2.value()->open_namespace(ns_name);
  ASSERT_TRUE(ns2.is_ok());
  const auto& [first_key, first_val] = *oracle.begin();
  auto got = c2.value()->get(ns2.value().ns_id, first_key);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), first_val);
}

// The output gate, pinned down. With several loops, a GET on one loop can
// read a value another loop's PUT wrote after the durable image froze, and
// the GET's loop cannot tell; so once the image froze, no response leaves
// any loop. A slowed-down device keeps the reader's loop in the middle of
// one pipelined batch of GETs when the crash trips: none of the batch may
// be sent, not even the GETs that read before the freeze.
TEST(NetCrashRig, NothingIsSentAfterTheFreeze) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kCrashSim);
  RawConn reader(fx.server->port());
  uint32_t ns = reader.open_ns(fx.ns_name_on_shard(fx.cfg.fault_shard));
  std::string out;
  append_frame(&out, Op::kPut, 2, 0, put_body(ns, "k", "v", 1));
  ASSERT_TRUE(reader.send_all(out));
  Frame f;
  ASSERT_TRUE(reader.read_frame(&f));
  ASSERT_EQ(f.hdr.status, 0u);

  // Every device read spins 2 ms until the crash (faults stop firing then).
  fault::FaultPlan plan;
  plan.add({"ssd.read", 1, fault::FaultType::kDelay, 2'000'000, -1});
  inj.set_plan(plan);
  inj.arm();
  constexpr int kGets = 50;
  out.clear();
  for (int i = 0; i < kGets; i++)
    append_frame(&out, Op::kGet, 10 + (uint64_t)i, 0, key_body(ns, "k"));
  ASSERT_TRUE(reader.send_all(out));
  // Trip the crash while the first GET spins in its device read.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (inj.hit_count("ssd.read") == 0 && std::chrono::steady_clock::now() < deadline) {
  }
  ASSERT_GT(inj.hit_count("ssd.read"), 0u) << "GETs never reached the device";
  inj.trigger_crash();

  int sent = 0;
  while (reader.read_frame(&f)) sent++;
  EXPECT_EQ(sent, 0) << "responses left the server after the freeze";
  EXPECT_TRUE(reader.eof) << "the crash did not close the connection";
  EXPECT_TRUE(fx.server->crashed());
}

// The crash gate covers held output: responses held on their read
// deadlines when the image freezes are never sent, and the connection
// closes.
TEST(NetCrashRig, HeldResponsesAreNotSentAfterTheFreeze) {
  fault::FaultInjector inj;
  ServerFixture fx(&inj, pmem::Pool::Mode::kCrashSim, {}, slow_reads(200'000'000));
  RawConn reader(fx.server->port());
  uint32_t ns = reader.open_ns(fx.ns_name_on_shard(fx.cfg.fault_shard));
  constexpr int kGets = 8;
  preload(reader, ns, kGets);
  inj.set_plan(fault::FaultPlan{});  // armed only to count device reads
  inj.arm();
  ASSERT_TRUE(reader.send_all(pipelined_gets(ns, kGets)));
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (inj.hit_count("ssd.read") < (uint64_t)kGets && Clock::now() < deadline) {
  }
  ASSERT_EQ(inj.hit_count("ssd.read"), (uint64_t)kGets) << "GETs never reached the device";
  inj.trigger_crash();

  Frame f;
  int sent = 0;
  while (reader.read_frame(&f)) sent++;
  EXPECT_EQ(sent, 0) << "held responses left the server after the freeze";
  EXPECT_TRUE(reader.eof) << "the crash did not close the connection";
  EXPECT_TRUE(fx.server->crashed());
}

#endif  // !DSTORE_FAULT_INJECTION_DISABLED

}  // namespace
}  // namespace dstore::net
