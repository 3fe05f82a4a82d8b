// dstore_lint — repo-invariant checker driven by compile_commands.json.
//
// clang-tidy (tools/run_lint.sh) covers generic C++ hygiene; this tool
// checks the invariants that are specific to THIS codebase and that no
// generic linter knows about:
//
//   1. raw-lock:      no raw std::mutex / std::condition_variable /
//                     std::lock_guard / RawSpinLock use in src/ outside the
//                     dstore::lockdep wrappers (src/common/lockdep.{h,cc}
//                     and the raw primitives they wrap in
//                     src/common/spinlock.h). A raw lock is invisible to
//                     the lock-order graph and the quiescent-free gate, so
//                     every one of these is a validation hole.
//   2. fault-point:   every DSTORE_FAULT_POINT step id is registered at
//                     exactly one source location. Duplicate ids alias two
//                     protocol steps in the crash-schedule space, so a
//                     sweep that thinks it crashed step A may have crashed
//                     step B (layer-level fault::hit() points such as
//                     ssd.write are counters, not steps, and may funnel
//                     several code paths — they are exempt).
//   3. metric-name:   every metric-name string literal registered or looked
//                     up in src/ appears in tools/metrics_schema.json's
//                     known_metrics catalogue, so the schema check in CI
//                     can never silently miss a new metric. (Names built at
//                     runtime — the per-op "dstore_" + op prefixes — are
//                     covered by the runtime scrape validation instead.)
//   4. status-discard: a `(void)` cast that swallows a call's return value
//                     must carry a `lint: allow-discard` comment on the
//                     same or preceding line explaining why losing the
//                     Status is safe. Bare discards are already compile
//                     errors ([[nodiscard]] / DS_NODISCARD); this closes
//                     the silencing loophole.
//   5. raw-persist:   hot-path files (log.cc, engine.cc, metadata_zone.cc,
//                     dstore.cc) must route per-op PMEM ordering through
//                     pmem::PersistBatch — a bare pool->persist()/flush()/
//                     fence()/..._nt() member call regresses the fence
//                     budgets pinned by tests/persist_budget_test.cc unless
//                     annotated `lint: allow-raw-persist` (cold spots such
//                     as recovery and root installation). persist_bulk is
//                     the sanctioned bulk primitive and is exempt.
//   6. status-code:   common/status_codes.h is the single source of truth
//                     tying Status::Code ↔ DS_E* ↔ the wire error byte.
//                     A #define of DS_OK/DS_E* anywhere else, or a line
//                     hand-mapping Code::k* to DS_* (the ad-hoc switch),
//                     forks the table and is rejected unless annotated
//                     `lint: allow-status-code` — extend the X-macro
//                     instead.
//   7. loop-wait:     no spin_for_ns(), IoQueue::wait_all() or
//                     std::this_thread::sleep_*() in src/net/: a server
//                     loop holds a GET's response until its device deadline
//                     rather than waiting the read out, so no device wait
//                     can creep back onto a loop thread. The queue-pair
//                     bound is annotated `lint: allow-loop-wait`.
//
// Usage: dstore_lint <build-dir-with-compile_commands.json>
//                    [--schema tools/metrics_schema.json]
//
// The compilation database supplies the translation-unit list (so the tool
// lints exactly what the build builds); headers under src/ are added by a
// directory walk since they never appear in a compdb. Exit code 0 when
// clean, 1 with one "file:line: [check] message" diagnostic per violation.
//
// The text-analysis core (stripping, tokenizing, the raw-persist,
// status-code and loop-wait rules) lives in tools/lint_rules.h so
// tests/lint_test.cc can unit-test it.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lint_rules.h"

namespace fs = std::filesystem;

using dstore::lint::Violation;
using dstore::lint::annotated;
using dstore::lint::check_loop_waits;
using dstore::lint::check_raw_persist;
using dstore::lint::check_status_codes;
using dstore::lint::compdb_files;
using dstore::lint::find_token;
using dstore::lint::line_of;
using dstore::lint::load_known_metrics;
using dstore::lint::metric_name_shape;
using dstore::lint::next_string_literal;
using dstore::lint::read_file;
using dstore::lint::strip_comments_and_strings;

namespace {

std::vector<Violation> g_violations;

void report(const std::string& file, size_t line, const std::string& check,
            const std::string& message) {
  g_violations.push_back({file, line, check, message});
}

// ---- check 1: raw lock primitives outside the lockdep wrappers ----------

const char* kRawLockTokens[] = {
    "std::mutex",          "std::shared_mutex", "std::recursive_mutex",
    "std::timed_mutex",    "std::condition_variable",
    "std::condition_variable_any",              "std::lock_guard",
    "std::unique_lock",    "std::shared_lock",  "std::scoped_lock",
    "RawSpinLock",         "RawSharedSpinLock",
};

bool raw_lock_allowed(const std::string& rel) {
  // The wrappers themselves and the raw primitives they instrument.
  return rel == "src/common/lockdep.h" || rel == "src/common/lockdep.cc" ||
         rel == "src/common/spinlock.h";
}

void check_raw_locks(const std::string& rel, const std::string& src,
                     const std::string& code) {
  (void)src;
  if (raw_lock_allowed(rel)) return;
  for (const char* tok : kRawLockTokens) {
    for (size_t pos : find_token(code, tok)) {
      report(rel, line_of(code, pos), "raw-lock",
             std::string(tok) +
                 " bypasses the lockdep wrappers (use dstore::Mutex/SpinLock/"
                 "CondVar from common/lockdep.h)");
    }
  }
}

// ---- check 2: DSTORE_FAULT_POINT step-id uniqueness ----------------------

struct FaultSite {
  std::string file;
  size_t line;
};
std::map<std::string, std::vector<FaultSite>> g_fault_sites;

void collect_fault_points(const std::string& rel, const std::string& src,
                          const std::string& code) {
  if (rel == "src/fault/fault.h") return;  // the macro's definition
  for (size_t pos : find_token(code, "DSTORE_FAULT_POINT")) {
    size_t open = code.find('(', pos);
    if (open == std::string::npos) continue;
    size_t comma = code.find(',', open);
    if (comma == std::string::npos) continue;
    // Step id literals never exceed a handful of lines of argument text.
    std::string lit = next_string_literal(src, comma, comma + 200);
    if (lit.empty()) {
      report(rel, line_of(code, pos), "fault-point",
             "DSTORE_FAULT_POINT step id must be a string literal");
      continue;
    }
    g_fault_sites[lit].push_back({rel, line_of(code, pos)});
  }
}

void check_fault_point_uniqueness() {
  for (const auto& [name, sites] : g_fault_sites) {
    if (sites.size() <= 1) continue;
    std::string others;
    for (size_t i = 1; i < sites.size(); i++) {
      if (!others.empty()) others += ", ";
      others += sites[i].file + ":" + std::to_string(sites[i].line);
    }
    report(sites[0].file, sites[0].line, "fault-point",
           "step id \"" + name + "\" is registered at " +
               std::to_string(sites.size()) +
               " sites (also " + others +
               "); duplicate ids alias distinct protocol steps in the "
               "crash-schedule space");
  }
}

// ---- check 3: metric-name literals are in the schema catalogue -----------

// `stat` is the register_substrate_metrics() helper that forwards its
// literal first argument to counter_fn.
const char* kMetricFns[] = {
    "counter",      "gauge",      "histogram",      "counter_fn", "gauge_fn",
    "find_counter", "find_gauge", "find_histogram", "counter_value", "stat",
};

void check_metric_names(const std::string& rel, const std::string& src,
                        const std::string& code,
                        const std::set<std::string>& known) {
  if (rel == "src/obs/metrics.h" || rel == "src/obs/metrics.cc") {
    return;  // the registry's own declarations, not registrations
  }
  for (const char* fn : kMetricFns) {
    for (size_t pos : find_token(code, fn)) {
      size_t after = pos + std::string(fn).size();
      // Must be a call whose first argument starts with a string literal.
      while (after < code.size() && std::isspace((unsigned char)code[after])) after++;
      if (after >= code.size() || code[after] != '(') continue;
      std::string lit = next_string_literal(src, after, after + 3);
      if (!metric_name_shape(lit)) continue;
      if (known.count(lit) == 0) {
        report(rel, line_of(code, pos), "metric-name",
               "metric \"" + lit +
                   "\" is not in tools/metrics_schema.json known_metrics — "
                   "add it so the CI scrape check covers it");
      }
    }
  }
}

// ---- check 4: (void) discards must be annotated --------------------------

void check_void_discards(const std::string& rel, const std::string& src,
                         const std::string& code) {
  if (rel == "src/fault/fault.h") return;  // DSTORE_FAULT_POINT's own (void)
  size_t pos = 0;
  while ((pos = code.find("(void)", pos)) != std::string::npos) {
    size_t expr = pos + 6;
    while (expr < code.size() && std::isspace((unsigned char)code[expr])) expr++;
    // Only discarded CALLS matter: scan the identifier chain (names, ::,
    // ., ->, template angles are rare here) and require a '(' after it.
    size_t j = expr;
    auto chainc = [](char c) {
      return std::isalnum((unsigned char)c) || c == '_' || c == ':' || c == '.' ||
             c == '>' || c == '-' || c == '*';
    };
    while (j < code.size() && chainc(code[j])) j++;
    bool is_call = j > expr && j < code.size() && code[j] == '(';
    if (!is_call) {
      pos = expr;
      continue;
    }
    if (!annotated(src, pos, "lint: allow-discard")) {
      report(rel, line_of(code, pos), "status-discard",
             "(void)-discarded call: annotate with `// lint: allow-discard "
             "<reason>` (same or previous line) or handle the Status");
    }
    pos = j;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dstore_lint <build-dir> [--schema metrics_schema.json]\n");
    return 2;
  }
  fs::path build_dir = argv[1];
  fs::path compdb_path = build_dir / "compile_commands.json";
  std::string schema_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--schema") schema_path = argv[i + 1];
  }

  std::string compdb = read_file(compdb_path);
  if (compdb.empty()) {
    std::fprintf(stderr,
                 "dstore_lint: cannot read %s (configure with "
                 "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)\n",
                 compdb_path.string().c_str());
    return 2;
  }

  // Repo root = parent of the src/ directory of the first src/ TU.
  std::vector<std::string> tus = compdb_files(compdb);
  fs::path repo_root;
  for (const std::string& f : tus) {
    size_t s = f.rfind("/src/");
    if (s != std::string::npos) {
      repo_root = fs::path(f.substr(0, s));
      break;
    }
  }
  if (repo_root.empty()) {
    std::fprintf(stderr, "dstore_lint: no src/ translation units in %s\n",
                 compdb_path.string().c_str());
    return 2;
  }
  if (schema_path.empty()) schema_path = (repo_root / "tools/metrics_schema.json").string();

  bool schema_has_catalogue = false;
  std::set<std::string> known = load_known_metrics(read_file(schema_path),
                                                   &schema_has_catalogue);
  if (!schema_has_catalogue) {
    std::fprintf(stderr, "dstore_lint: %s lacks a known_metrics section\n",
                 schema_path.c_str());
    return 2;
  }

  // Lint set: every src/ TU from the compdb, plus every header under src/
  // (headers never appear in a compilation database).
  std::set<std::string> files;
  std::string root_prefix = repo_root.string() + "/";
  for (const std::string& f : tus) {
    if (f.rfind(root_prefix + "src/", 0) == 0) files.insert(f.substr(root_prefix.size()));
  }
  for (const auto& e : fs::recursive_directory_iterator(repo_root / "src")) {
    if (e.is_regular_file() && e.path().extension() == ".h") {
      files.insert(fs::relative(e.path(), repo_root).string());
    }
  }

  for (const std::string& rel : files) {
    std::string src = read_file(repo_root / rel);
    if (src.empty()) continue;
    std::string code = strip_comments_and_strings(src);
    check_raw_locks(rel, src, code);
    collect_fault_points(rel, src, code);
    check_metric_names(rel, src, code, known);
    check_void_discards(rel, src, code);
    check_raw_persist(rel, src, code, &g_violations);
    check_status_codes(rel, src, code, &g_violations);
    check_loop_waits(rel, src, code, &g_violations);
  }
  check_fault_point_uniqueness();

  std::sort(g_violations.begin(), g_violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (const Violation& v : g_violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.check.c_str(),
                v.message.c_str());
  }
  if (!g_violations.empty()) {
    std::printf("dstore_lint: %zu violation(s) across %zu file(s)\n",
                g_violations.size(), files.size());
    return 1;
  }
  std::printf("dstore_lint: clean (%zu files)\n", files.size());
  return 0;
}
