// Shared reporting for the experiment binaries: each experiment prints one
// row per paper claim, "claim vs measured", and the binary exits non-zero
// if any claim fails to reproduce.  Timing figures for the running system
// come from perfbench (perfbench/README.md), not from these binaries.

#ifndef BENCH_EXP_COMMON_H_
#define BENCH_EXP_COMMON_H_

#include <cstdio>
#include <string>

namespace exp {

class Reporter {
 public:
  explicit Reporter(const char* title) {
    std::printf("=== %s ===\n", title);
    std::printf("%-10s %-58s %-10s %s\n", "exp", "claim", "measured", "status");
  }

  // A boolean claim: the paper asserts `claim`, we measured `measured`.
  void Check(const std::string& id, const std::string& claim, bool expected, bool measured) {
    bool ok = expected == measured;
    std::printf("%-10s %-58s %-10s %s\n", id.c_str(), claim.c_str(),
                measured ? "true" : "false", ok ? "PASS" : "FAIL");
    if (!ok) {
      ++failures_;
    }
  }

  // Free-form data row (no pass/fail semantics).
  void Note(const std::string& id, const std::string& text) {
    std::printf("%-10s %s\n", id.c_str(), text.c_str());
  }

  // Exit code for main().
  int Finish() const {
    std::printf("--- %d failure(s)\n\n", failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

}  // namespace exp

#endif  // BENCH_EXP_COMMON_H_
