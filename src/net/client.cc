#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace dstore::net {

namespace {

Status status_of_frame(const Frame& f) {
  if (f.hdr.status == 0) return Status::ok();
  // Error responses carry the message as the body; the code round-trips
  // through the one table (status_codes.h).
  return Status(code_from_wire(f.hdr.status), f.body);
}

int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Client::Client(int fd, ClientConfig cfg)
    : fd_(fd), cfg_(cfg), parser_(cfg.max_frame_bytes) {
  if (cfg_.metrics != nullptr) {
    m_reconnects_ = cfg_.metrics->counter("net_client_reconnects_total",
                                          "successful client reconnects");
    m_timeouts_ = cfg_.metrics->counter("net_client_timeouts_total",
                                        "sync calls that hit call_timeout_ms");
  }
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Result<int> Client::dial(const std::string& host, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::io_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve (tests and tools use "localhost").
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || res == nullptr) {
      close(fd);
      return Status::invalid_argument("cannot resolve host " + host);
    }
    addr.sin_addr = ((sockaddr_in*)res->ai_addr)->sin_addr;
    freeaddrinfo(res);
  }
  if (::connect(fd, (sockaddr*)&addr, sizeof(addr)) != 0) {
    Status s = Status::io_error("connect " + host + ":" + std::to_string(port) + ": " +
                                strerror(errno));
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::unique_ptr<Client>> Client::connect(const std::string& host, uint16_t port,
                                                ClientConfig cfg) {
  auto fd = dial(host, port);
  if (!fd.is_ok()) return fd.status();
  auto c = std::unique_ptr<Client>(new Client(fd.value(), cfg));
  c->host_ = host;
  c->port_ = port;
  return c;
}

Status Client::ensure_connected() {
  if (fd_ >= 0) return Status::ok();
  if (cfg_.max_reconnect_attempts == 0)
    return dead_.is_ok() ? Status::io_error("not connected") : dead_;
  uint32_t backoff = cfg_.reconnect_backoff_ms;
  Status last = dead_.is_ok() ? Status::io_error("not connected") : dead_;
  for (uint32_t attempt = 0; attempt < cfg_.max_reconnect_attempts; attempt++) {
    if (attempt > 0) {
      // lint: allow-loop-wait — reconnect backoff on the client's thread.
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, cfg_.reconnect_backoff_max_ms);
    }
    auto fd = dial(host_, port_);
    if (!fd.is_ok()) {
      last = fd.status();
      continue;
    }
    // Fresh connection, fresh framing. Old in-flight ids keep their parked
    // failures in completed_ — they are NOT replayed.
    fd_ = fd.value();
    parser_ = FrameParser(cfg_.max_frame_bytes);
    dead_ = Status::ok();
    if (m_reconnects_ != nullptr) m_reconnects_->inc();
    return Status::ok();
  }
  return last;
}

Result<std::unique_ptr<Client>> Client::connect(const std::string& hostport,
                                                ClientConfig cfg) {
  size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= hostport.size()) {
    return Status::invalid_argument("target must be host:port, got \"" + hostport + "\"");
  }
  char* end = nullptr;
  unsigned long port = strtoul(hostport.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return Status::invalid_argument("bad port in \"" + hostport + "\"");
  }
  return connect(hostport.substr(0, colon), (uint16_t)port, cfg);
}

void Client::die(const Status& why) {
  if (!dead_.is_ok()) return;
  dead_ = why;
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  // Every outstanding submission fails the same way; ids stay reapable so
  // wait()/wait_all() report the error rather than "unknown id".
  for (uint64_t id : onwire_) {
    Frame f;
    f.hdr.req_id = id;
    f.hdr.status = wire_byte_of(dead_.code());
    f.body = dead_.message();
    completed_.emplace(id, std::move(f));
  }
  onwire_.clear();
}

Status Client::send_frame(Op op, uint64_t req_id, std::string_view body) {
  if (!dead_.is_ok()) return dead_;
  if (body.size() > cfg_.max_frame_bytes) {
    return Status::invalid_argument("request body exceeds frame limit");
  }
  std::string frame;
  append_frame(&frame, op, req_id, 0, body);
  size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a dead server must surface as EPIPE, not kill the
    // process.
    ssize_t n = send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += (size_t)n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    die(Status::io_error("connection lost (send: " + std::string(strerror(errno)) + ")"));
    return dead_;
  }
  return Status::ok();
}

Status Client::recv_some() {
  if (!dead_.is_ok()) return dead_;
  size_t before = completed_.size();
  char buf[64 * 1024];
  while (completed_.size() == before) {
    // Drain whatever is already buffered first.
    for (;;) {
      Frame f;
      FrameParser::Next n = parser_.next(&f);
      if (n == FrameParser::Next::kNeedMore) break;
      if (n == FrameParser::Next::kError) {
        die(Status::io_error("connection lost (" + parser_.error().to_string() + ")"));
        return dead_;
      }
      if (onwire_.erase(f.hdr.req_id) != 0) {
        completed_.emplace(f.hdr.req_id, std::move(f));
      }
      // Unknown req_id: a late completion for a dropped wait — ignore.
    }
    if (completed_.size() != before) break;
    if (deadline_us_ != 0) {
      int64_t remain_us = deadline_us_ - steady_now_us();
      if (remain_us > 0) {
        // Round up, so the last poll does not wake short of the deadline.
        int64_t remain_ms = (remain_us + 999) / 1000;
        pollfd pfd{fd_, POLLIN, 0};
        int pr = poll(&pfd, 1, (int)std::min<int64_t>(remain_ms, INT32_MAX));
        if (pr < 0 && errno != EINTR) {
          die(Status::io_error("connection lost (poll: " +
                               std::string(strerror(errno)) + ")"));
          return dead_;
        }
        if (pr <= 0) continue;  // re-check the deadline
      } else {
        if (m_timeouts_ != nullptr) m_timeouts_->inc();
        die(Status::io_error("call timed out after " +
                             std::to_string(cfg_.call_timeout_ms) + "ms"));
        return dead_;
      }
    }
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      parser_.feed(buf, (size_t)n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    die(Status::io_error(n == 0 ? "connection lost (server closed the connection)"
                                : "connection lost (recv: " + std::string(strerror(errno)) +
                                      ")"));
    return dead_;
  }
  return Status::ok();
}

Result<uint64_t> Client::submit(Op op, std::string_view body) {
  if (!dead_.is_ok()) DSTORE_RETURN_IF_ERROR(ensure_connected());
  // Depth bound, IoQueue-style: past pipeline_depth, reap before
  // submitting more. Completions here stay parked until wait()ed.
  while (onwire_.size() >= cfg_.pipeline_depth) {
    DSTORE_RETURN_IF_ERROR(recv_some());
  }
  uint64_t id = next_id_++;
  onwire_.insert(id);
  Status s = send_frame(op, id, body);
  if (!s.is_ok()) return s;  // die() already parked the failure under id
  return id;
}

Status Client::wait(uint64_t id, std::string* value) {
  for (;;) {
    auto it = completed_.find(id);
    if (it != completed_.end()) {
      Status s = status_of_frame(it->second);
      if (s.is_ok() && value != nullptr) *value = std::move(it->second.body);
      completed_.erase(it);
      return s;
    }
    if (onwire_.count(id) == 0) {
      return Status::invalid_argument("unknown request id " + std::to_string(id));
    }
    DSTORE_RETURN_IF_ERROR(recv_some());
  }
}

Status Client::wait_all() {
  while (!onwire_.empty()) {
    Status s = recv_some();
    if (!s.is_ok()) break;  // die() parked every id; fall through to reap
  }
  Status first = Status::ok();
  for (auto& [id, f] : completed_) {
    Status s = status_of_frame(f);
    if (!s.is_ok() && first.is_ok()) first = s;
  }
  completed_.clear();
  return first;
}

Status Client::roundtrip(Op op, std::string_view body, Frame* resp) {
  if (!dead_.is_ok()) DSTORE_RETURN_IF_ERROR(ensure_connected());
  deadline_us_ =
      cfg_.call_timeout_ms > 0 ? steady_now_us() + (int64_t)cfg_.call_timeout_ms * 1000 : 0;
  uint64_t id = next_id_++;
  onwire_.insert(id);
  Status s = send_frame(op, id, body);
  while (s.is_ok()) {
    auto it = completed_.find(id);
    if (it != completed_.end()) {
      *resp = std::move(it->second);
      completed_.erase(it);
      break;
    }
    s = recv_some();
  }
  deadline_us_ = 0;
  return s;
}

Status Client::call(Op op, std::string_view body, Frame* resp) {
  return roundtrip(op, body, resp);
}

Result<NamespaceInfo> Client::open_namespace(std::string_view name) {
  if (name.size() > UINT16_MAX) return Status::invalid_argument("namespace name too long");
  Frame resp;
  DSTORE_RETURN_IF_ERROR(roundtrip(Op::kOpenNs, open_ns_body(name), &resp));
  DSTORE_RETURN_IF_ERROR(status_of_frame(resp));
  NamespaceInfo info;
  if (!parse_open_ns_resp(resp.body, &info)) {
    return Status::io_error("malformed open_ns response");
  }
  return info;
}

Status Client::put(uint32_t ns, std::string_view key, const void* value, size_t size) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  Frame resp;
  DSTORE_RETURN_IF_ERROR(roundtrip(Op::kPut, put_body(ns, key, value, size), &resp));
  return status_of_frame(resp);
}

Result<std::string> Client::get(uint32_t ns, std::string_view key, bool zero_copy) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  Frame resp;
  DSTORE_RETURN_IF_ERROR(
      roundtrip(zero_copy ? Op::kGetZc : Op::kGet, key_body(ns, key), &resp));
  DSTORE_RETURN_IF_ERROR(status_of_frame(resp));
  return std::move(resp.body);
}

Status Client::del(uint32_t ns, std::string_view key) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  Frame resp;
  DSTORE_RETURN_IF_ERROR(roundtrip(Op::kDelete, key_body(ns, key), &resp));
  return status_of_frame(resp);
}

Result<ScrubSummary> Client::scrub() {
  Frame resp;
  DSTORE_RETURN_IF_ERROR(roundtrip(Op::kScrub, "", &resp));
  DSTORE_RETURN_IF_ERROR(status_of_frame(resp));
  ScrubSummary s;
  if (!parse_scrub_resp(resp.body, &s)) return Status::io_error("malformed scrub response");
  return s;
}

Result<std::string> Client::metrics(uint8_t format) {
  Frame resp;
  DSTORE_RETURN_IF_ERROR(roundtrip(Op::kMetrics, metrics_body(format), &resp));
  DSTORE_RETURN_IF_ERROR(status_of_frame(resp));
  return std::move(resp.body);
}

Result<uint64_t> Client::submit_put(uint32_t ns, std::string_view key, const void* value,
                                    size_t size) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  return submit(Op::kPut, put_body(ns, key, value, size));
}

Result<uint64_t> Client::submit_get(uint32_t ns, std::string_view key, bool zero_copy) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  return submit(zero_copy ? Op::kGetZc : Op::kGet, key_body(ns, key));
}

Result<uint64_t> Client::submit_del(uint32_t ns, std::string_view key) {
  if (key.size() > UINT16_MAX) return Status::invalid_argument("key too long");
  return submit(Op::kDelete, key_body(ns, key));
}

}  // namespace dstore::net
