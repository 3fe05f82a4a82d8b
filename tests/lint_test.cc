// Unit tests for the linter's text-analysis core (tools/lint_rules.h),
// centered on the raw-persist rule: hot-path files must route per-op PMEM
// ordering through pmem::PersistBatch; raw persist/flush/fence member calls
// need a `lint: allow-raw-persist` annotation. The status-code and
// loop-wait rules are covered the same way. Tests feed inline source
// strings so both directions (fires / stays quiet) are covered — the driver
// binary only ever lints whole translation units.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint_rules.h"

namespace dstore::lint {
namespace {

std::vector<Violation> run_raw_persist(const std::string& rel,
                                       const std::string& src) {
  std::vector<Violation> out;
  check_raw_persist(rel, src, strip_comments_and_strings(src), &out);
  // The rule scans token-by-token; order by line like the driver does.
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) { return a.line < b.line; });
  return out;
}

TEST(LintRawPersist, FlagsRawMemberCallsInHotPathFiles) {
  const std::string src =
      "void f(pmem::Pool* p, char* a) {\n"
      "  p->persist(a, 64);\n"
      "  p->flush(a, 64);\n"
      "  p->fence();\n"
      "  p->persist_nt(a, 128);\n"
      "  p->flush_nt(a, 128);\n"
      "}\n";
  auto v = run_raw_persist("src/dipper/log.cc", src);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0].check, "raw-persist");
  EXPECT_EQ(v[0].line, 2u);
  EXPECT_EQ(v[2].line, 4u);
}

TEST(LintRawPersist, DotCallsAndChainedReceiversAreCaught) {
  const std::string src = "void f(pmem::Pool& p) { p.fence(); pool()->flush(x, 8); }\n";
  auto v = run_raw_persist("src/ds/metadata_zone.cc", src);
  EXPECT_EQ(v.size(), 2u);
}

TEST(LintRawPersist, ColdPathFilesAreExempt) {
  const std::string src = "void f(pmem::Pool* p) { p->persist(a, 64); p->fence(); }\n";
  EXPECT_TRUE(run_raw_persist("src/pmem/pool.cc", src).empty());
  EXPECT_TRUE(run_raw_persist("src/alloc/slab.cc", src).empty());
  EXPECT_TRUE(run_raw_persist("tools/pmemlint.cc", src).empty());
}

TEST(LintRawPersist, PersistBulkAndBatchApiAreSanctioned) {
  const std::string src =
      "void f(pmem::Pool* p) {\n"
      "  p->persist_bulk(a, 4096);\n"          // the bulk-pass primitive
      "  pmem::PersistBatch b(p);\n"
      "  b.add(a, 64);\n"
      "  b.commit();\n"
      "}\n";
  EXPECT_TRUE(run_raw_persist("src/dipper/engine.cc", src).empty());
}

TEST(LintRawPersist, AnnotationOnSameOrPreviousLineEscapes) {
  const std::string same =
      "void f(pmem::Pool* p) {\n"
      "  p->persist(a, 64);  // lint: allow-raw-persist recovery root install\n"
      "}\n";
  EXPECT_TRUE(run_raw_persist("src/dstore/dstore.cc", same).empty());
  const std::string prev =
      "void f(pmem::Pool* p) {\n"
      "  // lint: allow-raw-persist cold path, single ordering point IS the protocol\n"
      "  p->fence();\n"
      "}\n";
  EXPECT_TRUE(run_raw_persist("src/dstore/dstore.cc", prev).empty());
  const std::string too_far =
      "void f(pmem::Pool* p) {\n"
      "  // lint: allow-raw-persist two lines up does not count\n"
      "  int x = 0;\n"
      "  p->fence();\n"
      "}\n";
  EXPECT_EQ(run_raw_persist("src/dstore/dstore.cc", too_far).size(), 1u);
}

TEST(LintRawPersist, NonMemberUsesAreIgnored) {
  const std::string src =
      "void fence();\n"                      // free-function declaration
      "void g() { fence(); }\n"              // free call
      "int flush = 0;\n"                     // variable, not a call
      "void h(B* b) { b->flushed(); }\n"     // different identifier
      "// p->persist(a, 64) in a comment\n"  // stripped before matching
      "const char* s = \"p->fence()\";\n";   // inside a string literal
  EXPECT_TRUE(run_raw_persist("src/dipper/log.cc", src).empty());
}

// ---- status-code rule ----------------------------------------------------

std::vector<Violation> run_status_codes(const std::string& rel,
                                        const std::string& src) {
  std::vector<Violation> out;
  check_status_codes(rel, src, strip_comments_and_strings(src), &out);
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) { return a.line < b.line; });
  return out;
}

TEST(LintStatusCode, FlagsHandWrittenDefines) {
  const std::string src =
      "#define DS_ENOSPC -3\n"
      "#  define DS_OK 0\n"
      "#define DS_EWHATEVER -42\n";
  auto v = run_status_codes("src/dstore/dstore_c.h", src);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].check, "status-code");
  EXPECT_EQ(v[0].line, 1u);
  EXPECT_EQ(v[1].line, 2u);
}

TEST(LintStatusCode, NonCodeDefinesAreIgnored) {
  const std::string src =
      "#define DS_METRICS_JSON 0\n"      // DS_M..., not a code
      "#define DS_DEPRECATED(m)\n"       // DS_D...
      "#define DS_O_READ 0x1u\n"         // DS_O_..., lowercase boundary
      "#define DSTORE_FAULT_POINT(x)\n"  // different prefix entirely
      "#define MY_DS_EINVAL -4\n";       // not at identifier start... but
  // MY_DS_EINVAL is the full defined name and does not equal DS_E*, so quiet.
  EXPECT_TRUE(run_status_codes("src/dstore/dstore_c.h", src).empty());
}

TEST(LintStatusCode, FlagsHandMappingsBetweenCodeAndCEnum) {
  const std::string src =
      "int to_errno(Status s) {\n"
      "  switch (s.code()) {\n"
      "    case Code::kNotFound: return DS_ENOTFOUND;\n"
      "    case Code::kOutOfSpace: return DS_ENOSPC;\n"
      "    default: return 0;\n"
      "  }\n"
      "}\n";
  auto v = run_status_codes("src/dstore/dstore_c.cc", src);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].line, 3u);
  EXPECT_EQ(v[1].line, 4u);
}

TEST(LintStatusCode, SeparateUsesOnDistinctLinesAreFine) {
  const std::string src =
      "Status s = Status(Code::kNotFound);\n"
      "int e = DS_ENOTFOUND;\n"                    // not on the same line
      "int f = errno_of(Code::kNotFound);\n"       // the sanctioned mapping
      "srecord_errno(s, DS_EINVAL, \"bad\");\n";   // C enum alone
  EXPECT_TRUE(run_status_codes("src/dstore/dstore_c.cc", src).empty());
}

TEST(LintStatusCode, TableItselfAndAnnotationsAreExempt) {
  const std::string table = "#define DS_ENOSPC -3\n";
  EXPECT_TRUE(run_status_codes("src/common/status_codes.h", table).empty());
  const std::string annotated_src =
      "// lint: allow-status-code generated-from-table test fixture\n"
      "#define DS_EFAKE -99\n"
      "case Code::kBusy: return DS_EBUSY;  // lint: allow-status-code why\n";
  EXPECT_TRUE(run_status_codes("src/dstore/other.cc", annotated_src).empty());
}

// ---- loop-wait ------------------------------------------------------------

std::vector<Violation> run_loop_waits(const std::string& rel, const std::string& src) {
  std::vector<Violation> out;
  check_loop_waits(rel, src, strip_comments_and_strings(src), &out);
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) { return a.line < b.line; });
  return out;
}

TEST(LintLoopWait, FlagsDeviceWaitsInTheNetLayer) {
  const std::string src =
      "void f(ssd::IoQueue& q, ssd::IoQueue* p) {\n"
      "  dstore::spin_for_ns(7000);\n"
      "  q.wait_all();\n"
      "  p->wait_all();\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  std::this_thread::sleep_until(t);\n"
      "}\n";
  auto v = run_loop_waits("src/net/server.cc", src);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0].check, "loop-wait");
  EXPECT_EQ(v[0].line, 2u);
  EXPECT_EQ(v[4].line, 6u);
}

TEST(LintLoopWait, AnnotatedWaitsDeclarationsAndOtherDirsPass) {
  const std::string annotated_src =
      "spin_for_ns(d - now);  // lint: allow-loop-wait the queue pair is full\n"
      "// lint: allow-loop-wait client backoff, not a loop\n"
      "std::this_thread::sleep_for(backoff);\n";
  EXPECT_TRUE(run_loop_waits("src/net/server.cc", annotated_src).empty());
  // Declaring or defining a client's wait_all is not a device wait, nor is
  // a name that merely contains a flagged one.
  const std::string decls =
      "Status wait_all();\n"
      "Status Client::wait_all() { return ok; }\n"
      "my_spin_for_ns(1); sleep_for_a_while();\n";
  EXPECT_TRUE(run_loop_waits("src/net/client.cc", decls).empty());
  // The rule covers the net layer only; the store waits by design.
  EXPECT_TRUE(run_loop_waits("src/ssd/io_queue.cc", "void f() { spin_for_ns(5); }\n").empty());
}

// ---- shared helper coverage ---------------------------------------------

TEST(LintHelpers, StripPreservesLineStructure) {
  const std::string src = "int a; // comment\n/* b\nc */ int d;\n\"str\\\"ing\"\n";
  std::string code = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(code.find("comment"), std::string::npos);
  EXPECT_EQ(code.find("str"), std::string::npos);
  EXPECT_NE(code.find("int d"), std::string::npos);
}

TEST(LintHelpers, FindTokenRespectsIdentifierBoundaries) {
  std::string code = strip_comments_and_strings(
      "persist(x); my_persist(x); persist_nt(x); p->persist(y);");
  EXPECT_EQ(find_token(code, "persist").size(), 2u);  // bare + member only
  EXPECT_EQ(find_token(code, "persist_nt").size(), 1u);
}

TEST(LintHelpers, AnnotatedLooksAtSameAndPreviousLineOnly) {
  const std::string src = "// tag here\ncall();\nother();\n";
  size_t call_pos = src.find("call");
  size_t other_pos = src.find("other");
  EXPECT_TRUE(annotated(src, call_pos, "tag here"));
  EXPECT_FALSE(annotated(src, other_pos, "tag here"));
}

}  // namespace
}  // namespace dstore::lint
