// dstore::net::Client — the C++ client library for dstore_serverd
// (DESIGN.md §15).
//
// Two surfaces over one connection:
//   - sync calls (put/get/del/...): submit one frame, block for its
//     completion;
//   - pipelined async, mirroring the ssd::IoQueue submit/complete idiom:
//     submit_*() tags a request with a connection-local id and sends it
//     immediately; wait(id)/wait_all() reap completions. The server may
//     complete out of order (SCRUB runs off-loop) — completions are
//     matched by req_id, and up to cfg.pipeline_depth submissions ride
//     the wire at once (submit blocks reaping the oldest beyond that).
//
// A Client is single-threaded, like a ds_ctx_t: one connection per worker
// thread. Once the connection dies (server crash, protocol error) every
// outstanding and future call fails with IO_ERROR("connection lost") —
// callers reconnect with a fresh Client; acked writes are guaranteed
// durable on the server, unacked ones must be treated as unknown.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace dstore::net {

struct ClientConfig {
  size_t max_frame_bytes = kDefaultMaxFrame;
  uint32_t pipeline_depth = 64;  // max in-flight submissions

  // Bounded exponential-backoff reconnect, OFF by default: a dead client
  // staying dead is the crash-semantics contract the tests rely on. With
  // max_reconnect_attempts > 0, a sync call that finds the connection dead
  // re-dials (backoff doubling from reconnect_backoff_ms, capped at
  // reconnect_backoff_max_ms). Requests are NEVER replayed — in-flight
  // submissions keep their original failure; only new calls use the new
  // connection, so an ambiguous write stays ambiguous.
  uint32_t max_reconnect_attempts = 0;
  uint32_t reconnect_backoff_ms = 10;
  uint32_t reconnect_backoff_max_ms = 1000;
  // Per-sync-call deadline (0 = none). A call that exceeds it fails with
  // IO_ERROR and kills the connection — the response can no longer be
  // told apart from a hung server, so the framing is abandoned.
  uint32_t call_timeout_ms = 0;
  // Optional registry for net_client_reconnects_total /
  // net_client_timeouts_total (must outlive the Client).
  obs::MetricsRegistry* metrics = nullptr;
};

class Client {
 public:
  static Result<std::unique_ptr<Client>> connect(const std::string& host, uint16_t port,
                                                 ClientConfig cfg = {});
  // "host:port" form — the ds_session_open() target grammar.
  static Result<std::unique_ptr<Client>> connect(const std::string& hostport,
                                                 ClientConfig cfg = {});
  ~Client();

  bool connected() const { return fd_ >= 0; }

  // ---- sync ----------------------------------------------------------------
  Result<NamespaceInfo> open_namespace(std::string_view name);
  Status put(uint32_t ns, std::string_view key, const void* value, size_t size);
  // zero_copy asks the server to serve from its zero-copy read path; the
  // value always arrives by wire copy either way.
  Result<std::string> get(uint32_t ns, std::string_view key, bool zero_copy = false);
  Status del(uint32_t ns, std::string_view key);
  Result<ScrubSummary> scrub();
  Result<std::string> metrics(uint8_t format);  // 0 = JSON, 1 = Prometheus
  // Generic single-frame RPC: send op+body, block for the matching
  // response (matched by req_id; the response opcode may differ, e.g.
  // REPL_APPEND → REPL_ACK). The replication transport and protocol tests
  // build on this.
  Status call(Op op, std::string_view body, Frame* resp);

  // ---- pipelined async -----------------------------------------------------
  Result<uint64_t> submit_put(uint32_t ns, std::string_view key, const void* value,
                              size_t size);
  Result<uint64_t> submit_get(uint32_t ns, std::string_view key, bool zero_copy = false);
  Result<uint64_t> submit_del(uint32_t ns, std::string_view key);
  // Block until `id` completes; for gets, *value receives the bytes.
  Status wait(uint64_t id, std::string* value = nullptr);
  // Reap everything in flight; first error wins, all ids are consumed.
  Status wait_all();
  size_t in_flight() const { return onwire_.size(); }

 private:
  explicit Client(int fd, ClientConfig cfg);

  static Result<int> dial(const std::string& host, uint16_t port);
  // Re-establish a dead connection under the reconnect policy (no-op when
  // already connected; error when reconnect is off or attempts exhaust).
  Status ensure_connected();
  Status send_frame(Op op, uint64_t req_id, std::string_view body);
  // Read until at least one new completion is recorded (or the
  // connection dies / the active call deadline passes).
  Status recv_some();
  Status roundtrip(Op op, std::string_view body, Frame* resp);
  Result<uint64_t> submit(Op op, std::string_view body);
  void die(const Status& why);

  int fd_ = -1;
  ClientConfig cfg_;
  FrameParser parser_;
  uint64_t next_id_ = 1;
  std::unordered_set<uint64_t> onwire_;          // submitted, not yet completed
  std::unordered_map<uint64_t, Frame> completed_;  // completed, not yet reaped
  Status dead_ = Status::ok();  // non-ok once the connection is lost
  std::string host_;  // reconnect target
  uint16_t port_ = 0;
  int64_t deadline_us_ = 0;  // absolute steady-clock deadline (µs); 0 = none
  obs::Counter* m_reconnects_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;
};

}  // namespace dstore::net
