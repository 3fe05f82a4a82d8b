// Async RPC server for DStore (DESIGN.md §15.2): one epoll event loop per
// shard, capped at the CPUs the server may run on, with a per-connection
// state machine and no thread-per-connection. Loop 0 owns the listening
// socket and deals accepted connections round-robin to the loops through
// a per-loop inbox and eventfd; a connection never migrates, so its
// requests, req_id matching and Session stay on one thread. Connection
// handling mirrors the ssd::IoQueue submit/complete idiom — requests are
// submissions tagged with req_id, responses are completions, and they may
// finish out of order: fast data ops execute inline on the connection's
// loop (emulated PMEM/SSD ops are microseconds), slow ops (SCRUB) and
// replicated-write quorum waits go to one of two workers, whose
// completions return to the owning loop's queue through its eventfd.
//
// Deferred GET completion: each loop is one NVMe queue pair. A GET's
// device read is submitted and its value copied at once, but the loop does
// not wait the read's latency out: the response is appended and HELD until
// the read's completion deadline (DStore::oget's deferred mode). A
// connection's bytes leave in order up to its first unexpired hold, so no
// response leaves early and none overtakes a held one. Every poll pass
// releases the holds that came due; a loop keeps at most the shard
// config's ssd_qd reads in flight and, at that bound, waits out the
// earliest — the one device wait on a loop thread.
//
// Poll or park: a loop polls (epoll timeout 0) while it holds output or
// has seen an event — a read, a hand-off, a completion — in the last
// millisecond, and parks in a blocking epoll_wait only after a millisecond
// without one (net_loop_parks_total counts the parks). A parked loop's
// idle vCPU halts, and the request that ends the park pays the wake-up, so
// a loop with steady traffic keeps polling and takes a core; an idle
// server burns nothing.
//
// Tenancy: each namespace lives wholly on ONE ShardedStore shard — its
// home is shard_of(ns_name), recomputable after any restart, so the
// mapping needs no persistence. Tenant objects are stored under
// "<ns>\x1f<key>" via the explicit-placement session ops; each connection
// carries an affinity Session, pinned to its first namespace's home shard
// (the common one-tenant-per-connection case routes every op through that
// shard's private context with no per-op hashing). The namespace registry
// is shared by all loops; ns_ids are server-wide.
//
// Crash discipline: when a FaultInjector is wired, a loop re-checks
// injector->crashed() after executing every mutating op and BEFORE
// queueing the ack, before writing any response bytes (held ones
// included), and once per poll cycle. The first loop to see the durable
// image frozen stops every loop: nothing further is acknowledged and no
// value read after the freeze is returned — so "acked" (or "seen") always
// implies "committed before the crash", the invariant the server crash rig
// verifies (tests/net_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "dstore/sharded.h"
#include "fault/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace dstore::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via Server::port()
  int backlog = 1024;
  size_t max_frame_bytes = kDefaultMaxFrame;
  // A connection whose un-drained response backlog exceeds this is closed:
  // it bounds server memory against a client that pipelines but never
  // reads.
  size_t max_conn_backlog_bytes = 64u << 20;
  // Idle-connection reaper (0 = off): a connection that sends no bytes for
  // this long is dropped. HEARTBEAT frames count as activity — they are
  // the keepalive clients send to stay under the reaper.
  uint32_t idle_timeout_ms = 0;
};

class Server {
 public:
  // Binds, listens, and starts the event loops and the off-loop workers.
  // The loop count is min(store->num_shards(), CPUs in the calling
  // thread's affinity mask); loop threads inherit that mask. The
  // store must outlive the server. `fault` (optional) is the injector
  // wired into the store's crash-sim shard — the ack gate above. `repl`
  // (optional) attaches a replication node (DESIGN.md §16): the four
  // replication opcodes dispatch through it, and client writes are gated
  // on its role + quorum (followers serve reads in READ_ONLY mode).
  static Result<std::unique_ptr<Server>> start(ShardedStore* store, ServerConfig cfg,
                                               fault::FaultInjector* fault = nullptr,
                                               ReplHandler* repl = nullptr);
  ~Server();

  // Idempotent; joins every thread and closes every connection.
  void stop();

  // Graceful shutdown: stop accepting, finish dispatching what's already
  // buffered, flush every response (including queued slow-op completions
  // and held GET responses) on every loop, then stop. Falls back to a hard
  // stop() at the deadline.
  void drain_stop(uint32_t timeout_ms = 1000);

  uint16_t port() const;
  // True once the ack gate tripped: the durable image froze mid-run and
  // the server shut itself down without acknowledging anything further.
  bool crashed() const;

  // The server's own net_* registry (scraped merged with the store's
  // metrics by the METRICS op).
  obs::MetricsRegistry& metrics();

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dstore::net
