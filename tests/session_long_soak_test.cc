// Long soak: resident memory stays bounded over 200 000 queries on one
// Engine. Labeled `soak` (run alone with `ctest -L soak`).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "soak_workload.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Resident set size in bytes, from /proc/self/statm.
long ResidentBytes() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return read == 2 ? resident * sysconf(_SC_PAGESIZE) : -1;
}

TEST(SessionLongSoak, ResidentMemoryStaysBounded) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer allocators quarantine freed memory, so RSS "
                    "does not reflect what the engine holds";
  }
  if (ResidentBytes() < 0) GTEST_SKIP() << "/proc/self/statm unavailable";
  constexpr int kQueries = 200000;
  constexpr int kWarmup = 1000;
  constexpr long kBound = 8L << 20;
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(soak::ProgramText()).ok());
  long baseline = 0;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_NO_FATAL_FAILURE(soak::RunCold(&engine, i));
    if (i + 1 == kWarmup) baseline = ResidentBytes();
    // Checked along the way, so a leak fails early instead of running the
    // process out of memory.
    if (i >= kWarmup && (i + 1) % 10000 == 0) {
      ASSERT_LT(ResidentBytes() - baseline, kBound) << "after " << i + 1;
    }
  }
}

}  // namespace
}  // namespace xsb
