// Generator self-test: the coordinated-omission guard.
//
// Drives the replicated fleet with an open loop of puts and injects one
// 20 ms stall into the primary's quorum wait through the bench-side
// TimedReplHandler. An open-loop generator that times from the intended
// send must charge that stall to every request scheduled while it lasted
// (a closed loop would report one slow request and then silently send
// less), while its own lateness stays small.
//
// Run: python3 perfbench/run.py --selftest   (exit 0 = pass)
#include <cstdio>
#include <vector>

#include "common.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, double got) {
  printf("%s %-62s %.1f\n", ok ? "PASS" : "FAIL", what, got);
  if (!ok) failures++;
}

}  // namespace

int main() {
  using perfbench::StallProbe;
  StallProbe p;
  p.stall_ns = 20'000'000;
  p.rate = 4000;
  p.seconds = 1.0;
  perfbench::run_stall_probe(&p);
  check(p.ok, "probe ran without failed or wrong operations", p.ok ? 1 : 0);
  if (!p.ok) return 1;

  // Requests intended in the first 10 ms of the stall: each must report
  // at least the part of the stall still ahead of it (>= 10 ms - slack).
  size_t in_stall = 0, charged = 0, slow = 0;
  for (auto [intended, lat] : p.puts) {
    if (lat >= 10'000'000) slow++;
    if (intended < p.stall_at || intended >= p.stall_at + 10'000'000) continue;
    in_stall++;
    if (lat + (intended - p.stall_at) >= 15'000'000) charged++;
  }
  double expected = p.rate * 0.010;
  check(in_stall >= expected * 0.8, "requests scheduled in the first 10 ms of the stall",
        (double)in_stall);
  check(charged >= in_stall * 0.9 && in_stall > 0,
        "of those, requests reporting the stall from intended send", (double)charged);
  check((double)slow >= p.rate * 0.005, "requests slower than 10 ms (closed loop: ~1)",
        (double)slow);
  check(p.late_p99_us < 1000, "generator lateness p99 (us) stays under 1 ms", p.late_p99_us);
  printf("%s\n", failures == 0 ? "selftest: PASS" : "selftest: FAIL");
  return failures == 0 ? 0 : 1;
}
