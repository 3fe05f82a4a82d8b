// C binding tests (dstore/dstore_c.h): the handle-based session/namespace
// surface, one open call for embedded and remote stores, the paper's
// Table 2 calls in their namespace-scoped forms (key-value, filesystem
// style, locks), error-code mapping, and the per-session error slots.
//
// The CApi suite checks the Table 2 calls and the error model; CApiV3
// checks sessions, namespaces and transports.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "dstore/dstore_c.h"
#include "dstore/sharded.h"
#include "net/server.h"

namespace {

ds_session_options small_opts() {
  ds_session_options o{};
  o.store.max_objects = 1024;
  o.store.num_blocks = 4096;
  o.store.log_slots = 512;
  o.create = 1;
  return o;
}

// A session (embedded "mem:" by default) with namespaces "t" (ns) and "u"
// (other), closed in order.
struct Session {
  ds_session_t* s = nullptr;
  ds_namespace_t* ns = nullptr;
  ds_namespace_t* other = nullptr;
  explicit Session(const std::string& target = "mem:",
                   const ds_session_options& o = small_opts()) {
    s = ds_session_open(target.c_str(), &o);
    ns = ds_namespace_open(s, "t");
    other = ds_namespace_open(s, "u");
  }
  ~Session() {
    ds_namespace_close(ns);
    ds_namespace_close(other);
    ds_session_close(s);
  }
};

// ---- Table 2 calls and the error model ----------------------------------

TEST(CApi, ApiVersionMatchesHeader) {
  uint32_t v = ds_api_version();
  EXPECT_EQ(v >> 16, (uint32_t)DS_API_VERSION_MAJOR);
  EXPECT_EQ(v & 0xffffu, (uint32_t)DS_API_VERSION_MINOR);
}

// A fresh embedded store opens empty, keeps a clean error slot, and
// closes; closing NULL handles is a no-op.
TEST(CApi, OpenCloseInMemory) {
  ds_session_options o = small_opts();
  ds_session_t* s = ds_session_open("mem:", &o);
  ASSERT_NE(s, nullptr) << ds_open_error();
  EXPECT_EQ(ds_session_last_error_code(s), DS_OK);
  ds_namespace_t* ns = ds_namespace_open(s, "t");
  ASSERT_NE(ns, nullptr);
  char buf[8];
  EXPECT_EQ(ds_get(ns, "anything", buf, sizeof(buf)), DS_ENOTFOUND);
  ds_namespace_close(ns);
  ds_session_close(s);
  ds_namespace_close(nullptr);
  ds_session_close(nullptr);
}

TEST(CApi, KeyValueRoundTrip) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  const char value[] = "forty-two";
  EXPECT_EQ(ds_put(m.ns, "answer", value, sizeof(value)), (ssize_t)sizeof(value));
  char buf[64] = {};
  EXPECT_EQ(ds_get(m.ns, "answer", buf, sizeof(buf)), (ssize_t)sizeof(value));
  EXPECT_STREQ(buf, value);
  EXPECT_EQ(ds_delete(m.ns, "answer"), DS_OK);
  EXPECT_EQ(ds_get(m.ns, "answer", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_delete(m.ns, "answer"), DS_ENOTFOUND);
}

TEST(CApi, FilesystemStyle) {
  Session m;
  ASSERT_NE(m.ns, nullptr);

  EXPECT_EQ(ds_object_open(m.ns, "missing", 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTFOUND);
  ds_object_t* f = ds_object_open(m.ns, "log.txt", 0, DS_O_READ | DS_O_WRITE | DS_O_CREATE);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_OK);
  const char line1[] = "first line\n";
  const char line2[] = "second line\n";
  EXPECT_EQ(ds_write(f, line1, strlen(line1), 0), (ssize_t)strlen(line1));
  EXPECT_EQ(ds_write(f, line2, strlen(line2), (off_t)strlen(line1)), (ssize_t)strlen(line2));
  char buf[64] = {};
  ssize_t n = ds_read(f, buf, sizeof(buf), 0);
  EXPECT_EQ(n, (ssize_t)(strlen(line1) + strlen(line2)));
  EXPECT_EQ(std::string(buf, (size_t)n), std::string(line1) + line2);
  // Reads past EOF return 0; mode violations return EINVAL.
  EXPECT_EQ(ds_read(f, buf, 10, 1000), 0);
  ds_object_close(f);
  ds_object_t* ro = ds_object_open(m.ns, "log.txt", 0, DS_O_READ);
  ASSERT_NE(ro, nullptr);
  EXPECT_EQ(ds_write(ro, "x", 1, 0), DS_EINVAL);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
  ds_object_close(ro);
}

TEST(CApi, LocksViaC) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  EXPECT_EQ(ds_lock(m.ns, "dir"), DS_OK);
  EXPECT_EQ(ds_lock(m.ns, "dir"), DS_EBUSY);  // no recursive locks
  char v[8] = {};
  EXPECT_EQ(ds_put(m.ns, "dir", v, sizeof(v)), (ssize_t)sizeof(v));  // holder writes
  EXPECT_EQ(ds_unlock(m.ns, "dir"), DS_OK);
  EXPECT_EQ(ds_unlock(m.ns, "dir"), DS_ENOTFOUND);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTFOUND);
}

TEST(CApi, CheckpointAndCapacityErrors) {
  ds_session_options o = small_opts();
  o.store.max_objects = 4;
  Session m("mem:", o);
  ASSERT_NE(m.ns, nullptr);
  char v[16] = {};
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(ds_put(m.ns, ("k" + std::to_string(i)).c_str(), v, sizeof(v)),
              (ssize_t)sizeof(v));
  }
  EXPECT_EQ(ds_put(m.ns, "k5", v, sizeof(v)), DS_ENOSPC);
  EXPECT_EQ(ds_checkpoint(m.s), DS_OK);
}

// An object written through the filesystem-style calls into a dir:
// store is there after a reopen that recovers the store.
TEST(CApi, PersistsThroughBackingDir) {
  auto dir = std::filesystem::temp_directory_path() / "dstore_capi_test";
  std::filesystem::remove_all(dir);
  std::string target = "dir:" + dir.string();
  ds_session_options o = small_opts();
  const char v[] = "durable";
  {
    Session m(target, o);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    ds_object_t* f = ds_object_open(m.ns, "persists", sizeof(v), DS_O_WRITE | DS_O_CREATE);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(ds_write(f, v, sizeof(v), 0), (ssize_t)sizeof(v));
    ds_object_close(f);
  }
  {
    o.create = 0;  // recover
    Session m(target, o);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    ds_object_t* f = ds_object_open(m.ns, "persists", 0, DS_O_READ);
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    EXPECT_EQ(ds_read(f, buf, sizeof(buf), 0), (ssize_t)sizeof(v));
    EXPECT_STREQ(buf, v);
    ds_object_close(f);
  }
  std::filesystem::remove_all(dir);
}

TEST(CApi, CorruptionSurfacesAsEcorrupt) {
  auto dir = std::filesystem::temp_directory_path() / "dstore_capi_corrupt";
  std::filesystem::remove_all(dir);
  std::string target = "dir:" + dir.string();
  ds_session_options o = small_opts();
  const char v[] = "bytes that are about to rot on the device";
  {
    Session m(target, o);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    ASSERT_EQ(ds_put(m.ns, "victim", v, sizeof(v)), (ssize_t)sizeof(v));
  }
  // Hex-edit the data image behind the store's back — silent media rot.
  // The page-checksum sidecar (data.img.crc) is left intact, so the edit
  // is exactly the mismatch the integrity layer exists to catch.
  {
    std::fstream img(dir / "data.img",
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(img.is_open());
    std::string blob((std::istreambuf_iterator<char>(img)), {});
    size_t pos = blob.find("about to rot");
    ASSERT_NE(pos, std::string::npos);
    img.clear();
    img.seekp((std::streamoff)pos);
    char flipped = (char)(blob[pos] ^ 0x01);
    img.write(&flipped, 1);
  }
  {
    o.create = 0;  // recover
    Session m(target, o);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    char buf[64] = {};
    // The read must never return the rotten bytes as OK: the device-level
    // checksum fails, repair has no log copy to heal from, and the error
    // propagates through the C bindings as DS_ECORRUPT.
    EXPECT_EQ(ds_get(m.ns, "victim", buf, sizeof(buf)), (ssize_t)DS_ECORRUPT);
    EXPECT_EQ(ds_session_last_error_code(m.s), DS_ECORRUPT);
    EXPECT_NE(ds_session_last_error(m.s)[0], '\0');
  }
  std::filesystem::remove_all(dir);
}

TEST(CApi, LastErrorTracksMostRecentCall) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  EXPECT_STREQ(ds_open_error(), "");  // successful open
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_OK);  // successful namespace open
  EXPECT_STREQ(ds_session_last_error(m.s), "");

  char buf[16] = {};
  EXPECT_EQ(ds_get(m.ns, "nope", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTFOUND);
  EXPECT_NE(std::string(ds_session_last_error(m.s)).find("nope"), std::string::npos);

  EXPECT_EQ(ds_put(m.ns, "k", "v", 1), 1);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_OK);  // success clears the slot
  EXPECT_STREQ(ds_session_last_error(m.s), "");

  EXPECT_EQ(ds_get(m.ns, nullptr, buf, sizeof(buf)), DS_EINVAL);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
  EXPECT_NE(ds_session_last_error(m.s)[0], '\0');
}

TEST(CApi, NullArgumentsRejected) {
  // Null handles: rejected, nothing to record on.
  EXPECT_EQ(ds_namespace_open(nullptr, "x"), nullptr);
  EXPECT_EQ(ds_get(nullptr, "k", nullptr, 0), DS_EINVAL);
  EXPECT_EQ(ds_put(nullptr, "k", "v", 1), DS_EINVAL);
  EXPECT_EQ(ds_delete(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_lock(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_unlock(nullptr, "k"), DS_EINVAL);
  EXPECT_EQ(ds_object_open(nullptr, "k", 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_read(nullptr, nullptr, 0, 0), DS_EINVAL);
  EXPECT_EQ(ds_write(nullptr, nullptr, 0, 0), DS_EINVAL);
  EXPECT_EQ(ds_scrub(nullptr), DS_EINVAL);
  EXPECT_EQ(ds_checkpoint(nullptr), DS_EINVAL);
  EXPECT_EQ(ds_session_last_error_code(nullptr), DS_EINVAL);
  ds_session_close(nullptr);    // no-op
  ds_namespace_close(nullptr);  // no-op
  ds_object_close(nullptr);     // no-op

  // Null names on a live namespace: rejected onto the session's slot.
  Session m;
  ASSERT_NE(m.ns, nullptr);
  EXPECT_EQ(ds_object_open(m.ns, nullptr, 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
  EXPECT_EQ(ds_put(m.ns, "k", "v", 1), 1);
  EXPECT_EQ(ds_lock(m.ns, nullptr), DS_EINVAL);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
  EXPECT_EQ(ds_delete(m.ns, nullptr), DS_EINVAL);
}

TEST(CApi, MetricsDumpBothFormats) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  const char v[] = "value";
  ASSERT_EQ(ds_put(m.ns, "k", v, sizeof(v)), (ssize_t)sizeof(v));

  char* json = ds_session_metrics(m.s, DS_METRICS_JSON);
  ASSERT_NE(json, nullptr);
  EXPECT_NE(strstr(json, "\"version\": 1"), nullptr);
  EXPECT_NE(strstr(json, "dstore_puts_total"), nullptr);
  free(json);

  char* prom = ds_session_metrics(m.s, DS_METRICS_PROMETHEUS);
  ASSERT_NE(prom, nullptr);
  EXPECT_NE(strstr(prom, "# TYPE dstore_puts_total counter"), nullptr);
  free(prom);

  // Invalid arguments yield NULL, not a crash (a bad format:
  // CApiV3.BadMetricsFormatLandsOnSessionSlot).
  EXPECT_EQ(ds_session_metrics(nullptr, DS_METRICS_JSON), nullptr);
}

// ---- sessions, namespaces, transports ------------------------------------

// 4.0 removed the flat global-store entry points.
TEST(CApiV3, ApiVersionReports4_0) {
  EXPECT_EQ(ds_api_version() >> 16, 4u);
  EXPECT_EQ(ds_api_version() & 0xffffu, 0u);
  EXPECT_EQ(DS_API_VERSION_MAJOR, 4);
  EXPECT_EQ(DS_API_VERSION_MINOR, 0);
}

// The round trip itself is CApi.KeyValueRoundTrip; this adds the short
// buffer contract and embedded maintenance.
TEST(CApiV3, EmbeddedMemSessionRoundTrip) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  const char payload[] = "hello from v3";
  ASSERT_EQ(ds_put(m.ns, "greeting", payload, sizeof(payload)), (ssize_t)sizeof(payload));
  // Short buffer: full size returned, cap bytes copied.
  char tiny[4];
  ASSERT_EQ(ds_get(m.ns, "greeting", tiny, sizeof(tiny)), (ssize_t)sizeof(payload));
  EXPECT_EQ(memcmp(tiny, payload, sizeof(tiny)), 0);
  EXPECT_EQ(ds_checkpoint(m.s), DS_OK);  // embedded: forces one
  EXPECT_EQ(ds_scrub(m.s), DS_OK);
}

TEST(CApiV3, EmbeddedNamespacesAreIsolated) {
  Session m;
  ds_namespace_t* a = m.ns;
  ds_namespace_t* b = m.other;
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(ds_put(a, "k", "AAA", 3), 3);
  ASSERT_EQ(ds_put(b, "k", "BB", 2), 2);
  char buf[8];
  ASSERT_EQ(ds_get(a, "k", buf, sizeof(buf)), 3);
  EXPECT_EQ(memcmp(buf, "AAA", 3), 0);
  ASSERT_EQ(ds_get(b, "k", buf, sizeof(buf)), 2);
  EXPECT_EQ(memcmp(buf, "BB", 2), 0);
  ASSERT_EQ(ds_delete(a, "k"), DS_OK);
  EXPECT_EQ(ds_get(a, "k", buf, sizeof(buf)), DS_ENOTFOUND);
  EXPECT_EQ(ds_get(b, "k", buf, sizeof(buf)), 2);
}

// Objects live in the same tenant-prefixed key space as ds_put: an object
// written through one namespace is a key of that namespace and invisible
// to every other.
TEST(CApiV3, ObjectsAreNamespaceScoped) {
  Session m;
  ds_namespace_t* a = m.ns;
  ds_namespace_t* b = m.other;
  ASSERT_NE(b, nullptr);
  ds_object_t* f = ds_object_open(a, "file", 0, DS_O_WRITE | DS_O_CREATE);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(ds_write(f, "bytes", 5, 0), 5);
  ds_object_close(f);

  char buf[8] = {};
  EXPECT_EQ(ds_get(a, "file", buf, sizeof(buf)), 5);
  EXPECT_EQ(memcmp(buf, "bytes", 5), 0);
  EXPECT_EQ(ds_object_open(b, "file", 0, DS_O_READ), nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTFOUND);
  EXPECT_EQ(ds_get(b, "file", buf, sizeof(buf)), DS_ENOTFOUND);
}

// Closing a namespace releases the object locks its context still holds,
// so a namespace opened later can lock the same name.
TEST(CApiV3, NamespaceCloseReleasesLocks) {
  ds_session_options o = small_opts();
  ds_session_t* s = ds_session_open("mem:", &o);
  ASSERT_NE(s, nullptr);
  ds_namespace_t* ns = ds_namespace_open(s, "t");
  ASSERT_NE(ns, nullptr);
  ASSERT_EQ(ds_lock(ns, "dir"), DS_OK);
  ds_namespace_close(ns);

  ns = ds_namespace_open(s, "t");
  ASSERT_NE(ns, nullptr);
  // A leaked lock makes ds_lock wait forever: lock off-thread with a
  // deadline so that fails the test instead of hanging the suite.
  auto rc = std::make_shared<std::atomic<int>>(1);
  std::thread([ns, rc] { rc->store(ds_lock(ns, "dir")); }).detach();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rc->load() == 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (rc->load() == 1) {
    // The stuck thread still uses ns and s: leave both open.
    FAIL() << "ds_lock still waiting 5 s after the holder's namespace closed";
  }
  EXPECT_EQ(rc->load(), DS_OK);
  EXPECT_EQ(ds_unlock(ns, "dir"), DS_OK);
  ds_namespace_close(ns);
  ds_session_close(s);
}

// A bad format is a failure of THIS session's call, so it lands on the
// session's slot and overwrites the previous outcome.
TEST(CApiV3, BadMetricsFormatLandsOnSessionSlot) {
  Session m;
  ASSERT_NE(m.ns, nullptr);
  ASSERT_EQ(ds_put(m.ns, "k", "v", 1), 1);
  ASSERT_EQ(ds_session_last_error_code(m.s), DS_OK);
  EXPECT_EQ(ds_session_metrics(m.s, 99), nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
  EXPECT_NE(ds_session_last_error(m.s)[0], '\0');
}

TEST(CApiV3, MalformedTargetsAndNamesFailCleanly) {
  EXPECT_EQ(ds_session_open(nullptr, nullptr), nullptr);
  EXPECT_NE(ds_open_error()[0], '\0');
  EXPECT_EQ(ds_session_open("dir:", nullptr), nullptr);
  EXPECT_NE(ds_open_error()[0], '\0');

  Session m;
  ASSERT_NE(m.s, nullptr);
  EXPECT_EQ(ds_namespace_open(m.s, ""), nullptr);
  EXPECT_EQ(ds_namespace_open(m.s, "bad\x1fname"), nullptr);
  EXPECT_EQ(ds_namespace_open(nullptr, "x"), nullptr);
  EXPECT_EQ(ds_session_last_error_code(m.s), DS_EINVAL);
}

TEST(CApiV3, DirSessionPersistsAcrossReopen) {
  std::string dir = ::testing::TempDir() + "ds_v3_dir_test";
  std::filesystem::remove_all(dir);

  ds_session_options opt{};  // default sizing
  opt.create = 1;
  std::string target = "dir:" + dir;
  {
    Session m(target, opt);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    ASSERT_EQ(ds_put(m.ns, "durable", "stays", 5), 5);
  }
  opt.create = 0;  // recover
  {
    Session m(target, opt);
    ASSERT_NE(m.ns, nullptr) << ds_open_error();
    char buf[16];
    ASSERT_EQ(ds_get(m.ns, "durable", buf, sizeof(buf)), 5);
    EXPECT_EQ(memcmp(buf, "stays", 5), 0);
  }
  std::filesystem::remove_all(dir);
}

// Error state lives on the session, so concurrent sessions (one per
// thread, as documented) observe their own last error and never each
// other's.
TEST(CApiV3, ConcurrentSessionsKeepIndependentErrors) {
  Session ok, err;
  ASSERT_NE(ok.ns, nullptr);
  ASSERT_NE(err.ns, nullptr);

  constexpr int kOps = 500;
  std::thread ok_thread([&] {
    char buf[16];
    for (int i = 0; i < kOps; i++) {
      ASSERT_EQ(ds_put(ok.ns, "k", "v", 1), 1);
      ASSERT_EQ(ds_get(ok.ns, "k", buf, sizeof(buf)), 1);
    }
  });
  std::thread err_thread([&] {
    char buf[16];
    for (int i = 0; i < kOps; i++) {
      ASSERT_EQ(ds_get(err.ns, "missing", buf, sizeof(buf)), DS_ENOTFOUND);
    }
  });
  ok_thread.join();
  err_thread.join();

  // Each session's slot reflects ITS last call. A thread-local slot would
  // hold this only by the accident of one-thread-per-session; two sessions
  // sharing a thread would clobber each other.
  EXPECT_EQ(ds_session_last_error_code(ok.s), DS_OK);
  EXPECT_EQ(ds_session_last_error_code(err.s), DS_ENOTFOUND);
  EXPECT_NE(std::string(ds_session_last_error(err.s)).find("NOT_FOUND"),
            std::string::npos);
  EXPECT_STREQ(ds_session_last_error(ok.s), "");
}

// One surface, two transports: the same calls drive dstore_serverd
// remotely. The server + store live in-process for the test.
TEST(CApiV3, RemoteSessionOverLiveServer) {
  dstore::ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.affinity = true;
  cfg.shard.max_objects = 256;
  cfg.shard.num_blocks = 2048;
  cfg.shard.engine.log_slots = 256;
  cfg.shard.engine.arena_bytes = 1 << 20;
  auto store = dstore::ShardedStore::create(cfg);
  ASSERT_TRUE(store.is_ok());
  auto server = dstore::net::Server::start(store.value().get(), {});
  ASSERT_TRUE(server.is_ok());

  std::string target = "127.0.0.1:" + std::to_string(server.value()->port());
  {
    Session m(target);
    ASSERT_NE(m.s, nullptr) << ds_open_error();
    ASSERT_NE(m.ns, nullptr) << ds_session_last_error(m.s);
    ds_namespace_t* ns = m.ns;

    ASSERT_EQ(ds_put(ns, "k", "remote-value", 12), 12);
    char buf[32];
    ASSERT_EQ(ds_get(ns, "k", buf, sizeof(buf)), 12);
    EXPECT_EQ(memcmp(buf, "remote-value", 12), 0);
    // Short buffer on the remote path: same full-size contract as embedded.
    char tiny[4];
    ASSERT_EQ(ds_get(ns, "k", tiny, sizeof(tiny)), 12);
    EXPECT_EQ(memcmp(tiny, "remo", 4), 0);
    ASSERT_EQ(ds_delete(ns, "k"), DS_OK);
    EXPECT_EQ(ds_get(ns, "k", buf, sizeof(buf)), DS_ENOTFOUND);
    EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTFOUND);

    EXPECT_EQ(ds_scrub(m.s), DS_OK);
    EXPECT_EQ(ds_checkpoint(m.s), DS_ENOTSUP);  // servers checkpoint themselves

    // DSTP has no object or lock opcodes.
    EXPECT_EQ(ds_object_open(ns, "obj", 0, DS_O_READ | DS_O_WRITE | DS_O_CREATE), nullptr);
    EXPECT_EQ(ds_session_last_error_code(m.s), DS_ENOTSUP);
    EXPECT_EQ(ds_lock(ns, "obj"), DS_ENOTSUP);
    EXPECT_EQ(ds_unlock(ns, "obj"), DS_ENOTSUP);

    char* metrics = ds_session_metrics(m.s, DS_METRICS_JSON);
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(strstr(metrics, "net_requests_total"), nullptr);  // server series
    free(metrics);
  }

  // Connecting to a dead port fails with the reason on the open-error slot
  // (no session exists to carry it); the next successful open clears it.
  server.value()->stop();
  EXPECT_EQ(ds_session_open(target.c_str(), nullptr), nullptr);
  EXPECT_NE(ds_open_error()[0], '\0');
  Session m;
  ASSERT_NE(m.s, nullptr);
  EXPECT_STREQ(ds_open_error(), "");
}

}  // namespace
