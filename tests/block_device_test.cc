// Tests for the emulated NVMe block device: IO bounds, power-loss
// protection semantics, stats, and the file-backed variant.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "common/clock.h"
#include "ssd/block_device.h"

namespace dstore::ssd {
namespace {

DeviceConfig small_cfg(bool plp = true) {
  DeviceConfig cfg;
  cfg.page_size = 4096;
  cfg.pages_per_block = 1;
  cfg.num_blocks = 64;
  cfg.power_loss_protection = plp;
  return cfg;
}

TEST(RamDevice, WriteReadRoundTrip) {
  RamBlockDevice dev(small_cfg());
  char out[4096];
  char in[4096];
  std::memset(in, 0x5c, sizeof(in));
  ASSERT_TRUE(dev.write(3, 0, in, sizeof(in)).is_ok());
  ASSERT_TRUE(dev.read(3, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(RamDevice, PartialBlockIo) {
  RamBlockDevice dev(small_cfg());
  const char* msg = "hello nvme";
  ASSERT_TRUE(dev.write(1, 100, msg, 10).is_ok());
  char out[10];
  ASSERT_TRUE(dev.read(1, 100, out, 10).is_ok());
  EXPECT_EQ(std::memcmp(out, msg, 10), 0);
}

TEST(RamDevice, OutOfRangeRejected) {
  RamBlockDevice dev(small_cfg());
  char buf[16] = {};
  EXPECT_EQ(dev.write(64, 0, buf, 16).code(), Code::kInvalidArgument);
  EXPECT_EQ(dev.read(64, 0, buf, 16).code(), Code::kInvalidArgument);
  EXPECT_EQ(dev.write(0, 4090, buf, 16).code(), Code::kInvalidArgument);  // crosses block end
}

TEST(RamDevice, PlpWritesSurviveCrash) {
  RamBlockDevice dev(small_cfg(/*plp=*/true));
  char in[64];
  std::memset(in, 0x42, sizeof(in));
  ASSERT_TRUE(dev.write(0, 0, in, sizeof(in)).is_ok());
  dev.crash();  // capacitors flush the device cache
  char out[64];
  ASSERT_TRUE(dev.read(0, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(RamDevice, NoPlpUnflushedWritesLost) {
  RamBlockDevice dev(small_cfg(/*plp=*/false));
  char in[64];
  std::memset(in, 0x42, sizeof(in));
  ASSERT_TRUE(dev.write(0, 0, in, sizeof(in)).is_ok());
  dev.crash();
  char out[64];
  ASSERT_TRUE(dev.read(0, 0, out, sizeof(out)).is_ok());
  for (char c : out) EXPECT_EQ(c, 0);
}

TEST(RamDevice, NoPlpFlushedWritesSurvive) {
  RamBlockDevice dev(small_cfg(/*plp=*/false));
  char in[64];
  std::memset(in, 0x42, sizeof(in));
  ASSERT_TRUE(dev.write(0, 0, in, sizeof(in)).is_ok());
  ASSERT_TRUE(dev.flush_cache().is_ok());
  dev.crash();
  char out[64];
  ASSERT_TRUE(dev.read(0, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(RamDevice, StatsAccumulate) {
  RamBlockDevice dev(small_cfg());
  char buf[4096] = {};
  ASSERT_TRUE(dev.write(0, 0, buf, 4096).is_ok());
  ASSERT_TRUE(dev.write(1, 0, buf, 4096).is_ok());
  ASSERT_TRUE(dev.read(0, 0, buf, 4096).is_ok());
  EXPECT_EQ(dev.stats().bytes_written.load(), 8192u);
  EXPECT_EQ(dev.stats().write_ios.load(), 2u);
  EXPECT_EQ(dev.stats().bytes_read.load(), 4096u);
  EXPECT_EQ(dev.stats().read_ios.load(), 1u);
}

TEST(RamDevice, BandwidthSeriesHook) {
  RamBlockDevice dev(small_cfg());
  dstore::TimeSeries ts(4, 1000000000ull);
  dev.set_bandwidth_series(&ts);
  char buf[4096] = {};
  ASSERT_TRUE(dev.write(0, 0, buf, 4096).is_ok());
  EXPECT_EQ(ts.bin(0), 4096u);
}

TEST(RamDevice, MultiPageBlocks) {
  DeviceConfig cfg = small_cfg();
  cfg.pages_per_block = 4;  // 16KB blocks
  RamBlockDevice dev(cfg);
  char in[16384];
  std::memset(in, 0x37, sizeof(in));
  ASSERT_TRUE(dev.write(2, 0, in, sizeof(in)).is_ok());
  char out[16384];
  ASSERT_TRUE(dev.read(2, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(RamDevice, LatencyInjection) {
  DeviceConfig cfg = small_cfg();
  cfg.latency.ssd_write_base_ns = 200000;  // 200us, easily measurable
  RamBlockDevice dev(cfg);
  char buf[4096] = {};
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(dev.write(0, 0, buf, 4096).is_ok());
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  EXPECT_GE(us, 200);
}

TEST(RamDevice, SubmitIoReturnsDeadlineNotInlineLatency) {
  // submit_io performs the media effect immediately but charges no inline
  // latency: the call returns fast with an absolute completion deadline.
  DeviceConfig cfg = small_cfg();
  cfg.latency.ssd_write_base_ns = 200000;
  RamBlockDevice dev(cfg);
  char buf[4096] = {};
  uint64_t before = now_ns();
  auto r = dev.submit_io(IoDesc{0, 0, sizeof(buf), buf, nullptr});
  uint64_t after = now_ns();
  ASSERT_TRUE(r.is_ok());
  EXPECT_LT(after - before, 100000u);          // returned well under the 200us cost
  EXPECT_GE(r.value(), before + 200000u);      // ...which lives in the deadline
  // The data is already on the media side regardless of the deadline.
  char out[4096];
  ASSERT_TRUE(dev.read(0, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(buf, out, sizeof(out)), 0);
}

TEST(RamDevice, SubmitIoDeadlinesOverlapAcrossIos) {
  // Two back-to-back submissions with a pure base cost complete in
  // parallel: the second deadline is NOT queued behind the first.
  DeviceConfig cfg = small_cfg();
  cfg.latency.ssd_write_base_ns = 500000;
  RamBlockDevice dev(cfg);
  char buf[4096] = {};
  auto r1 = dev.submit_io(IoDesc{0, 0, sizeof(buf), buf, nullptr});
  auto r2 = dev.submit_io(IoDesc{1, 0, sizeof(buf), buf, nullptr});
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_LT(r2.value(), r1.value() + 500000u);
}

TEST(RamDevice, SubmitIoRejectsMalformedDescriptors) {
  RamBlockDevice dev(small_cfg());
  char buf[64] = {};
  EXPECT_EQ(dev.submit_io(IoDesc{0, 0, 64, buf, buf}).status().code(),
            Code::kInvalidArgument);
  EXPECT_EQ(dev.submit_io(IoDesc{0, 0, 64, nullptr, nullptr}).status().code(),
            Code::kInvalidArgument);
  EXPECT_EQ(dev.submit_io(IoDesc{63, 4090, 64, buf, nullptr}).status().code(),
            Code::kInvalidArgument);  // spans past device capacity
}

TEST(RamDevice, SubmitIoHonorsWriteCacheSemantics) {
  // The async path must keep PLP semantics: without capacitors, a write
  // acked through submit_io is lost on crash unless the cache was flushed.
  RamBlockDevice dev(small_cfg(/*plp=*/false));
  char in[4096];
  std::memset(in, 0x7e, sizeof(in));
  auto r = dev.submit_io(IoDesc{2, 0, sizeof(in), in, nullptr});
  ASSERT_TRUE(r.is_ok());
  dev.crash();
  char out[4096];
  ASSERT_TRUE(dev.read(2, 0, out, sizeof(out)).is_ok());
  EXPECT_NE(std::memcmp(in, out, sizeof(in)), 0);  // reverted

  ASSERT_TRUE(dev.submit_io(IoDesc{2, 0, sizeof(in), in, nullptr}).is_ok());
  ASSERT_TRUE(dev.flush_cache().is_ok());
  dev.crash();
  ASSERT_TRUE(dev.read(2, 0, out, sizeof(out)).is_ok());
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);  // flushed => durable
}

// A FileBlockDevice image and the page-checksum sidecar written beside it.
void remove_image(const std::filesystem::path& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".crc");
}

TEST(FileDevice, SubmitIoCoalescedSpanRoundTrips) {
  auto path = std::filesystem::temp_directory_path() / "dstore_blockdev_async.bin";
  auto dev = FileBlockDevice::open(path.string(), small_cfg(), /*create=*/true);
  ASSERT_TRUE(dev.is_ok());
  std::vector<char> in(2 * 4096 + 512);
  for (size_t i = 0; i < in.size(); i++) in[i] = char('A' + i % 29);
  auto w = dev.value()->submit_io(IoDesc{3, 0, in.size(), in.data(), nullptr});
  ASSERT_TRUE(w.is_ok());
  std::vector<char> out(in.size());
  auto r = dev.value()->submit_io(IoDesc{3, 0, out.size(), nullptr, out.data()});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), in.size()), 0);
  remove_image(path);
}

TEST(FileDevice, PersistsAcrossReopen) {
  auto path = std::filesystem::temp_directory_path() / "dstore_blockdev_test.bin";
  DeviceConfig cfg = small_cfg();
  {
    auto dev = FileBlockDevice::open(path.string(), cfg, /*create=*/true);
    ASSERT_TRUE(dev.is_ok());
    char in[128];
    std::memset(in, 0x61, sizeof(in));
    ASSERT_TRUE(dev.value()->write(5, 64, in, sizeof(in)).is_ok());
    ASSERT_TRUE(dev.value()->flush_cache().is_ok());
  }
  {
    auto dev = FileBlockDevice::open(path.string(), cfg, /*create=*/false);
    ASSERT_TRUE(dev.is_ok());
    char out[128];
    ASSERT_TRUE(dev.value()->read(5, 64, out, sizeof(out)).is_ok());
    for (char c : out) EXPECT_EQ((unsigned char)c, 0x61u);
  }
  remove_image(path);
}

TEST(FileDevice, OpenMissingFails) {
  auto dev = FileBlockDevice::open("/nonexistent-dir/xyz.bin", small_cfg(), false);
  ASSERT_FALSE(dev.is_ok());
  EXPECT_EQ(dev.status().code(), Code::kIoError);
}

}  // namespace
}  // namespace dstore::ssd
