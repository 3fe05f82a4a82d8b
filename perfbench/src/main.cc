// perfbench — the repository benchmark's one binary.
//
//   perfbench --workload <store-ycsb-a|served-ycsb-b|served-repl-a>
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric plus the attribution table. Human-readable lines first, then one
// JSON object as the last line of stdout: {"correct", "attempted",
// "failed", "metrics"}. The full result, with its environment block, goes
// to DIR/<workload>-seed<N>-trace<T>.json (spans to .spans.jsonl). Exit
// status 1 on any failed op, wrong value or lost acknowledged write.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

struct Name {
  const char* name;
  const char* unit;
};

// The end-to-end and per-layer metric sets; BENCHMARK.json lists the same.
constexpr Name kE2e[] = {
    {"setup_s", "s"},  {"throughput_ops", "ops/s"}, {"get_p50_us", "us"},
    {"put_p50_us", "us"}, {"space_amp", "x"},
};

constexpr Name kLayer[] = {
    {"client.get_p99_us", "us"},
    {"client.put_p99_us", "us"},
    {"client.get_p50_us.high", "us"},
    {"client.put_p50_us.high", "us"},
    {"client.get_p99_us.high", "us"},
    {"client.put_p99_us.high", "us"},
    {"client.max_rate_at_slo_ops", "ops/s"},
    {"net.self_us", "us"},
    {"net.bytes_in_per_op", "B"},
    {"net.bytes_out_per_op", "B"},
    {"proc.syscalls_per_op", "count"},
    {"gen.late_p99_us", "us"},
    {"gen.backlog_max", "count"},
    {"repl.quorum_wait_us.p50", "us"},
    {"repl.quorum_wait_us.p99", "us"},
    {"repl.follower_apply_us", "us"},
    {"repl.sink_us", "us"},
    {"repl.entries_per_append", "count"},
    {"repl.append_rejects", "count"},
    {"repl.resyncs", "count"},
    {"dstore.put_us", "us"},
    {"dstore.get_us", "us"},
    {"dstore.stage.log_append_us", "us"},
    {"dstore.stage.pool_alloc_us", "us"},
    {"dstore.stage.meta_zone_us", "us"},
    {"dstore.stage.btree_us", "us"},
    {"dstore.stage.ssd_batch_us", "us"},
    {"dstore.stage.commit_flush_us", "us"},
    {"dstore.unattributed_us", "us"},
    {"dstore.put_p999_us", "us"},
    {"dstore.put_max_us", "us"},
    {"dstore.get_p999_us", "us"},
    {"dipper.checkpoints", "count"},
    {"dipper.ckpt_ms", "ms"},
    {"dipper.backpressure_waits", "count"},
    {"dipper.log_fill_max", "ratio"},
    {"dipper.stall_ms_max", "ms"},
    {"dipper.records_per_put", "count"},
    {"dipper.recovery_ms", "ms"},
    {"dipper.recovery_metadata_ms", "ms"},
    {"dipper.recovery_replay_ms", "ms"},
    {"pmem.fences_per_put", "count"},
    {"pmem.flushes_per_put", "count"},
    {"pmem.bytes_flushed_per_put", "B"},
    {"ssd.ios_per_op", "count"},
    {"ssd.write_amp", "x"},
    {"ssd.media_us_per_op", "us"},
    {"ssd.submit_us", "us"},
    {"ssd.retries", "count"},
    {"ckpt_pool.runs", "count"},
    {"ckpt_pool.steal_chunks", "count"},
    {"proc.cpu_us_per_op", "us"},
    {"proc.rss_peak_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\', o += c;
    else if ((unsigned char)c < 0x20) o += ' ';
    else o += c;
  }
  return o;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string o = "{";
  char buf[96];
  for (const auto& [name, v] : m) {
    if (o.size() > 1) o += ", ";
    snprintf(buf, sizeof(buf), "%.17g", v.value);
    o += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + v.unit + "\"}";
  }
  return o + "}";
}

int usage() {
  fprintf(stderr,
          "usage: perfbench --workload store-ycsb-a|served-ycsb-b|served-repl-a --seed N\n"
          "                 --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = strtod(v, nullptr);
    else if (a == "--trace") o.trace = strcmp(v, "0") != 0;
    else if (a == "--out-dir") o.out_dir = v;
    else if (a == "--commit") o.commit = v;
    else return usage();
  }
  if (o.seconds <= 0) return usage();

  // Pin what the shell could otherwise change: the engine reads
  // DSTORE_PMEM_NT for its nt_stores default (the configs also set it
  // explicitly), and DSTORE_REMOTE_ADDR must never redirect anything.
  const char* inherited_nt = getenv("DSTORE_PMEM_NT");
  setenv("DSTORE_PMEM_NT", "0", 1);
  unsetenv("DSTORE_REMOTE_ADDR");

  Report r;
  r.env = {{"workload", o.workload},
           {"seed", std::to_string(o.seed)},
           {"seconds", std::to_string(o.seconds)},
           {"trace", o.trace ? "1" : "0"},
           {"nproc", std::to_string(std::thread::hardware_concurrency())},
           {"build_type", PERFBENCH_BUILD_TYPE},
           {"commit", o.commit},
           {"latency_scale", std::to_string(perfbench::kLatencyScale)},
           {"ssd_qd", std::to_string(perfbench::kSsdQd)},
           {"plp", "1"},
           {"pmem_nt", "0"},
           {"pmem_nt_inherited", inherited_nt != nullptr ? inherited_nt : "(unset)"},
           {"early_ack", "0"},
           {"background_checkpointing", "1"},
           {"slo_p99_us", std::to_string(perfbench::kSloUs)}};

  if (o.workload == "store-ycsb-a") {
    perfbench::run_store_ycsb_a(o, &r);
  } else if (o.workload == "served-ycsb-b") {
    perfbench::run_served(o, perfbench::Served::kYcsbB, &r);
  } else if (o.workload == "served-repl-a") {
    perfbench::run_served(o, perfbench::Served::kReplA, &r);
  } else {
    return usage();
  }

  std::map<std::string, Metric> out;
  if (o.trace) {
    r.set_layer("proc.rss_peak_mb", perfbench::rss_peak_mb(), "MB");
    for (const Name& n : kLayer) {
      auto it = r.layer.find(n.name);
      out[n.name] = {it != r.layer.end() ? it->second.value : 0.0, n.unit};
    }
  } else {
    for (const Name& n : kE2e) {
      auto it = r.e2e.find(n.name);
      if (it == r.e2e.end()) {
        if (r.errors.empty()) r.error(std::string("metric not measured: ") + n.name);
        continue;
      }
      out[n.name] = {it->second.value, n.unit};
    }
  }
  double error_ratio =
      r.attempted ? (double)(r.failed + r.wrong) / (double)r.attempted : 1.0;

  printf("# perfbench %s seed=%llu trace=%d\n", o.workload.c_str(),
         (unsigned long long)o.seed, o.trace ? 1 : 0);
  std::string env_line = "# env:";
  for (const auto& [k, v] : r.env) env_line += " " + k + "=" + v;
  printf("%s\n", env_line.c_str());
  for (const auto& n : r.notes) printf("# %s\n", n.c_str());
  for (const auto& e : r.errors) printf("# ERROR %s\n", e.c_str());
  for (const auto& [name, v] : out) printf("%-30s %14.4f %s\n", name.c_str(), v.value, v.unit.c_str());
  printf("%-30s %14.6f ratio  (attempted %llu, failed %llu, wrong %llu)\n", "error_ratio",
         error_ratio, (unsigned long long)r.attempted, (unsigned long long)r.failed,
         (unsigned long long)r.wrong);

  bool correct = r.correct() && r.attempted > 0;
  std::string base = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
                     (o.trace ? "1" : "0");
  mkdir(o.out_dir.c_str(), 0755);
  if (FILE* f = fopen((base + ".json").c_str(), "w")) {
    std::string env = "{";
    for (const auto& [k, v] : r.env) {
      if (env.size() > 1) env += ", ";
      env += "\"" + k + "\": \"" + json_escape(v) + "\"";
    }
    env += "}";
    std::string notes = "[";
    for (const auto& n : r.notes) notes += (notes.size() > 1 ? ", \"" : "\"") + json_escape(n) + "\"";
    notes += "]";
    std::string errs = "[";
    for (const auto& n : r.errors) errs += (errs.size() > 1 ? ", \"" : "\"") + json_escape(n) + "\"";
    errs += "]";
    fprintf(f,
            "{\"env\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"wrong\": %llu, \"error_ratio\": %.9g, \"metrics\": %s, \"notes\": %s, "
            "\"errors\": %s}\n",
            env.c_str(), correct ? "true" : "false", (unsigned long long)r.attempted,
            (unsigned long long)r.failed, (unsigned long long)r.wrong, error_ratio,
            metrics_json(out).c_str(), notes.c_str(), errs.c_str());
    fclose(f);
  }
  if (o.trace) perfbench::SpanRecorder::get().write(base + ".spans.jsonl");

  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
         correct ? "true" : "false", (unsigned long long)r.attempted,
         (unsigned long long)(r.failed + r.wrong), metrics_json(out).c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}
