#include "dstore/dstore_c.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "common/lockdep.h"
#include "dstore/dstore.h"
#include "net/client.h"

namespace {

// An embedded store and the emulated media it owns.
struct EmbeddedStore {
  dstore::DStoreConfig cfg;
  std::unique_ptr<dstore::pmem::Pool> pool;
  std::unique_ptr<dstore::ssd::BlockDevice> device;
  std::unique_ptr<dstore::DStore> store;
};

}  // namespace

// A session: exactly one of {store, client} is set (embedded vs remote),
// plus the per-session error slot. The slot has its own lock so
// ds_session_last_error*() can be called while another thread still runs
// the session's last op — the rest of a session is single-threaded by
// contract.
struct ds_session {
  std::unique_ptr<EmbeddedStore> store;        // embedded ("mem:", "dir:")
  std::unique_ptr<dstore::net::Client> client; // remote ("host:port")

  mutable dstore::SpinLock err_mu{"capi.session_err"};
  int err_code = DS_OK;
  std::string err_msg;
};

// A tenant keyspace. Embedded namespaces hold a private engine context and
// prefix keys exactly like the server does ("<ns>\x1f<key>"), so embedded
// and remote sessions are observationally identical; remote ones hold the
// server-assigned namespace id.
struct ds_namespace {
  ds_session_t* owner = nullptr;
  std::string name;
  dstore::ds_ctx_t* ctx = nullptr;  // embedded
  uint32_t ns_id = 0;               // remote
};

// An open object of an embedded namespace.
struct ds_object {
  ds_namespace_t* owner = nullptr;
  dstore::Object* obj = nullptr;
};

namespace {

constexpr char kNsSep = '\x1f';

// ds_open_error state: written only by ds_session_open, whose failures
// have no session to report through.
thread_local std::string tls_open_error;

int record(ds_session_t* s, const dstore::Status& st) {
  int code = dstore::errno_of(st.code());
  dstore::LockGuard<dstore::SpinLock> g(s->err_mu);
  s->err_code = code;
  if (st.is_ok()) {
    s->err_msg.clear();
  } else {
    s->err_msg = st.to_string();
  }
  return code;
}

// A failure the bindings detect themselves (never DS_OK).
int record_errno(ds_session_t* s, int code, const char* msg) {
  dstore::LockGuard<dstore::SpinLock> g(s->err_mu);
  s->err_code = code;
  s->err_msg = msg;
  return code;
}

// A byte-count outcome: the count on success, else the recorded code.
ssize_t record_count(ds_session_t* s, const dstore::Result<size_t>& r) {
  if (!r.is_ok()) return record(s, r.status());
  record(s, dstore::Status::ok());
  return (ssize_t)r.value();
}

dstore::Status no_remote_objects() {
  return dstore::Status::unsupported("DSTP has no object or lock opcodes");
}

dstore::DStoreConfig config_from(const dstore_options* o) {
  dstore::DStoreConfig cfg;
  cfg.max_objects = (o != nullptr && o->max_objects != 0) ? o->max_objects : (1 << 14);
  cfg.num_blocks = (o != nullptr && o->num_blocks != 0) ? o->num_blocks : (1 << 16);
  cfg.engine.log_slots = (o != nullptr && o->log_slots != 0) ? o->log_slots : 8192;
  cfg.engine.arena_bytes = dstore::DStoreConfig::suggested_arena_bytes(cfg.max_objects);
  cfg.engine.background_checkpointing =
      o != nullptr && o->background_checkpointing != 0;
  return cfg;
}

// An embedded store: file-backed under `dir`, in RAM when `dir` is null.
dstore::Result<std::unique_ptr<EmbeddedStore>> open_store(const dstore_options* options,
                                                          const char* dir, int create) {
  auto s = std::make_unique<EmbeddedStore>();
  s->cfg = config_from(options);
  size_t pool_bytes = dstore::DStoreConfig::required_pool_bytes(s->cfg);
  dstore::ssd::DeviceConfig dc;
  dc.num_blocks = s->cfg.num_blocks;
  if (dir != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    auto pool = dstore::pmem::Pool::open_file(std::string(dir) + "/pmem.img", pool_bytes,
                                              dstore::LatencyModel::none(), create != 0);
    if (!pool.is_ok()) return pool.status();
    s->pool = std::move(pool).value();
    auto dev = dstore::ssd::FileBlockDevice::open(std::string(dir) + "/data.img", dc,
                                                  create != 0);
    if (!dev.is_ok()) return dev.status();
    s->device = std::move(dev).value();
  } else {
    s->pool = std::make_unique<dstore::pmem::Pool>(pool_bytes,
                                                   dstore::pmem::Pool::Mode::kDirect);
    s->device = std::make_unique<dstore::ssd::RamBlockDevice>(dc);
  }
  auto store = create != 0 ? dstore::DStore::create(s->pool.get(), s->device.get(), s->cfg)
                           : dstore::DStore::recover(s->pool.get(), s->device.get(), s->cfg);
  if (!store.is_ok()) return store.status();
  s->store = std::move(store).value();
  return s;
}

std::string tenant_key(const std::string& ns_name, const char* key) {
  return ns_name + kNsSep + key;
}

bool valid_ns_name(const char* name) {
  return name != nullptr && name[0] != '\0' && strchr(name, kNsSep) == nullptr;
}

dstore::DStore& engine_of(const ds_namespace_t* ns) { return *ns->owner->store->store; }

}  // namespace

extern "C" {

uint32_t ds_api_version(void) {
  return ((uint32_t)DS_API_VERSION_MAJOR << 16) | (uint32_t)DS_API_VERSION_MINOR;
}

/* ---- sessions ---- */

ds_session_t* ds_session_open(const char* target, const ds_session_options* options) {
  auto fail = [](const std::string& why) -> ds_session_t* {
    tls_open_error = why;
    return nullptr;
  };
  if (target == nullptr) return fail("null target");
  std::string t = target;
  auto session = std::make_unique<ds_session>();
  if (t == "mem:" || t == "mem" || t.rfind("dir:", 0) == 0) {
    std::string dir;
    int create = 1;
    if (t.rfind("dir:", 0) == 0) {
      dir = t.substr(4);
      if (dir.empty()) return fail("dir: target needs a path");
      if (options != nullptr) create = options->create;
    }
    auto store = open_store(options != nullptr ? &options->store : nullptr,
                            dir.empty() ? nullptr : dir.c_str(), create);
    if (!store.is_ok()) return fail(store.status().to_string());
    session->store = std::move(store).value();
  } else {
    // Remote: "tcp:host:port" or bare "host:port".
    std::string hostport = t.rfind("tcp:", 0) == 0 ? t.substr(4) : t;
    dstore::net::ClientConfig cfg;
    if (options != nullptr && options->pipeline_depth != 0) {
      cfg.pipeline_depth = options->pipeline_depth;
    }
    auto client = dstore::net::Client::connect(hostport, cfg);
    if (!client.is_ok()) return fail(client.status().to_string());
    session->client = std::move(client).value();
  }
  tls_open_error.clear();
  return session.release();
}

void ds_session_close(ds_session_t* session) { delete session; }

const char* ds_open_error(void) { return tls_open_error.c_str(); }

/* ---- namespaces ---- */

ds_namespace_t* ds_namespace_open(ds_session_t* session, const char* name) {
  if (session == nullptr) return nullptr;
  if (!valid_ns_name(name)) {
    record_errno(session, DS_EINVAL, "malformed namespace name");
    return nullptr;
  }
  auto ns = std::make_unique<ds_namespace>(ds_namespace{session, name});
  if (session->client) {
    auto info = session->client->open_namespace(name);
    if (!info.is_ok()) {
      record(session, info.status());
      return nullptr;
    }
    ns->ns_id = info.value().ns_id;
  } else {
    ns->ctx = session->store->store->ds_init();
  }
  record(session, dstore::Status::ok());
  return ns.release();
}

void ds_namespace_close(ds_namespace_t* ns) {
  if (ns == nullptr) return;
  if (ns->ctx != nullptr) engine_of(ns).ds_finalize(ns->ctx);
  delete ns;
}

/* ---- key-value style ---- */

ssize_t ds_put(ds_namespace_t* ns, const char* key, const void* value, size_t size) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return record_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  dstore::Status st = s->client
                          ? s->client->put(ns->ns_id, key, value, size)
                          : engine_of(ns).oput(ns->ctx, tenant_key(ns->name, key), value, size);
  int code = record(s, st);
  return st.is_ok() ? (ssize_t)size : code;
}

ssize_t ds_get(ds_namespace_t* ns, const char* key, void* value, size_t value_cap) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return record_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  if (s->client) {
    auto r = s->client->get(ns->ns_id, key);
    if (!r.is_ok()) return record(s, r.status());
    size_t n = r.value().size() < value_cap ? r.value().size() : value_cap;
    if (n > 0) memcpy(value, r.value().data(), n);
    record(s, dstore::Status::ok());
    return (ssize_t)r.value().size();
  }
  return record_count(s, engine_of(ns).oget(ns->ctx, tenant_key(ns->name, key), value,
                                            value_cap));
}

int ds_delete(ds_namespace_t* ns, const char* key) {
  if (ns == nullptr) return DS_EINVAL;
  if (key == nullptr) return record_errno(ns->owner, DS_EINVAL, "null key");
  ds_session_t* s = ns->owner;
  return record(s, s->client ? s->client->del(ns->ns_id, key)
                             : engine_of(ns).odelete(ns->ctx, tenant_key(ns->name, key)));
}

/* ---- filesystem style ---- */

ds_object_t* ds_object_open(ds_namespace_t* ns, const char* name, size_t size,
                            uint32_t mode) {
  if (ns == nullptr) return nullptr;
  ds_session_t* s = ns->owner;
  if (name == nullptr) {
    record_errno(s, DS_EINVAL, "null name");
    return nullptr;
  }
  if (s->client) {
    record(s, no_remote_objects());
    return nullptr;
  }
  static_assert(DS_O_READ == dstore::kRead && DS_O_WRITE == dstore::kWrite &&
                    DS_O_CREATE == dstore::kCreate,
                "DS_O_* flags are the engine's open modes");
  auto r = engine_of(ns).oopen(ns->ctx, tenant_key(ns->name, name), size, mode);
  if (!r.is_ok()) {
    record(s, r.status());
    return nullptr;
  }
  record(s, dstore::Status::ok());
  return new ds_object{ns, r.value()};
}

void ds_object_close(ds_object_t* object) {
  if (object == nullptr) return;
  engine_of(object->owner).oclose(object->obj);
  delete object;
}

ssize_t ds_read(ds_object_t* object, void* buf, size_t size, off_t offset) {
  if (object == nullptr) return DS_EINVAL;
  return record_count(object->owner->owner, engine_of(object->owner).oread(
                                                object->obj, buf, size, (uint64_t)offset));
}

ssize_t ds_write(ds_object_t* object, const void* buf, size_t size, off_t offset) {
  if (object == nullptr) return DS_EINVAL;
  return record_count(object->owner->owner, engine_of(object->owner).owrite(
                                                object->obj, buf, size, (uint64_t)offset));
}

/* ---- concurrency control ---- */

int ds_lock(ds_namespace_t* ns, const char* name) {
  if (ns == nullptr) return DS_EINVAL;
  if (name == nullptr) return record_errno(ns->owner, DS_EINVAL, "null name");
  if (ns->owner->client) return record(ns->owner, no_remote_objects());
  return record(ns->owner, engine_of(ns).olock(ns->ctx, tenant_key(ns->name, name)));
}

int ds_unlock(ds_namespace_t* ns, const char* name) {
  if (ns == nullptr) return DS_EINVAL;
  if (name == nullptr) return record_errno(ns->owner, DS_EINVAL, "null name");
  if (ns->owner->client) return record(ns->owner, no_remote_objects());
  return record(ns->owner, engine_of(ns).ounlock(ns->ctx, tenant_key(ns->name, name)));
}

/* ---- maintenance ---- */

int ds_scrub(ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  if (session->client) {
    auto r = session->client->scrub();
    return record(session, r.is_ok() ? dstore::Status::ok() : r.status());
  }
  return record(session, session->store->store->scrub_now());
}

int ds_checkpoint(ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  if (session->client) {
    return record(session, dstore::Status::unsupported(
                               "remote servers checkpoint at the log watermark"));
  }
  return record(session, session->store->store->checkpoint_now());
}

/* ---- observability ---- */

char* ds_session_metrics(ds_session_t* session, int format) {
  if (session == nullptr) return nullptr;
  if (format != DS_METRICS_JSON && format != DS_METRICS_PROMETHEUS) {
    record_errno(session, DS_EINVAL, "bad metrics format");
    return nullptr;
  }
  std::string out;
  if (session->client) {
    auto r = session->client->metrics((uint8_t)format);
    if (!r.is_ok()) {
      record(session, r.status());
      return nullptr;
    }
    out = std::move(r).value();
  } else {
    out = format == DS_METRICS_JSON ? session->store->store->metrics_json()
                                    : session->store->store->metrics_prometheus();
  }
  char* buf = strdup(out.c_str());  // scrapes are text: no embedded NULs
  if (buf == nullptr) {
    record_errno(session, DS_EINTERNAL, "out of memory");
    return nullptr;
  }
  record(session, dstore::Status::ok());
  return buf;
}

/* ---- error reporting ---- */

int ds_session_last_error_code(const ds_session_t* session) {
  if (session == nullptr) return DS_EINVAL;
  dstore::LockGuard<dstore::SpinLock> g(session->err_mu);
  return session->err_code;
}

const char* ds_session_last_error(const ds_session_t* session) {
  if (session == nullptr) return "null session";
  dstore::LockGuard<dstore::SpinLock> g(session->err_mu);
  return session->err_msg.c_str();
}

}  // extern "C"
