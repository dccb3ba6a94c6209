// LD_PRELOAD profiler for scripts/profile.sh: a SIGPROF stack sampler and a
// global operator new counter keyed by call stack. Both record raw return
// addresses; at exit the library writes them, each resolved to its object
// file and file offset, to $XSB_PROFILE_OUT for the script to symbolize.
//
// Build: g++ -O2 -fPIC -shared -o libxsbprof.so profile_preload.cc -ldl
// Environment: XSB_PROFILE_OUT (dump file, required); XSB_PROFILE_MODE
// `cpu` (sample stacks, count allocations without their stacks) or `alloc`
// (record each allocation's stack, no sampling; the default). Sampling
// runs at 997 samples per CPU second, a prime so it does not beat with
// periodic work.
//
// Stacks come from glibc's backtrace(), which unwinds through DWARF tables,
// so it also crosses libstdc++ and libc frames built without frame pointers.
// Unwinding at every allocation costs more than the program itself, which is
// why the two modes are separate runs.

#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

constexpr int kMaxFrames = 48;
constexpr size_t kSampleWords = size_t{1} << 22;  // packed sample stacks
constexpr size_t kSiteSlots = size_t{1} << 15;    // distinct alloc stacks
constexpr int kSiteFrames = 16;

// Samples: [n, pc_0 .. pc_{n-1}] records appended to one buffer.
uintptr_t g_samples[kSampleWords];
std::atomic<size_t> g_sample_end{0};
std::atomic<uint64_t> g_dropped{0};

struct Site {
  std::atomic<uint64_t> hash{0};
  uint64_t count = 0;
  int depth = 0;
  uintptr_t frames[kSiteFrames];
};
Site g_sites[kSiteSlots];
std::atomic_flag g_site_lock = ATOMIC_FLAG_INIT;
std::atomic<uint64_t> g_allocations{0};
std::atomic<bool> g_active{false};
bool g_alloc_stacks = true;

thread_local bool t_in_unwind = false;

void RecordAllocation() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (!g_alloc_stacks || !g_active.load(std::memory_order_relaxed) ||
      t_in_unwind) {
    return;
  }
  t_in_unwind = true;
  void* frames[kSiteFrames + 2];
  int n = backtrace(frames, kSiteFrames + 2);
  t_in_unwind = false;
  // Frame 0 is this function and frame 1 the operator new that called it.
  int skip = n > 2 ? 2 : n;
  int depth = n - skip;
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < depth; ++i) {
    h ^= reinterpret_cast<uintptr_t>(frames[skip + i]);
    h *= 1099511628211ULL;
  }
  if (h == 0) h = 1;
  while (g_site_lock.test_and_set(std::memory_order_acquire)) {
  }
  for (size_t i = h & (kSiteSlots - 1), probes = 0; probes < kSiteSlots;
       i = (i + 1) & (kSiteSlots - 1), ++probes) {
    uint64_t k = g_sites[i].hash.load(std::memory_order_relaxed);
    if (k == h) {
      ++g_sites[i].count;
      break;
    }
    if (k == 0) {
      g_sites[i].hash.store(h, std::memory_order_relaxed);
      g_sites[i].count = 1;
      g_sites[i].depth = depth;
      for (int f = 0; f < depth; ++f) {
        g_sites[i].frames[f] = reinterpret_cast<uintptr_t>(frames[skip + f]);
      }
      break;
    }
  }
  g_site_lock.clear(std::memory_order_release);
}

void OnProfSignal(int, siginfo_t*, void*) {
  if (!g_active.load(std::memory_order_relaxed) || t_in_unwind) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  t_in_unwind = true;
  void* frames[kMaxFrames];
  int n = backtrace(frames, kMaxFrames);
  t_in_unwind = false;
  // Frames 0-1 are this handler and the signal trampoline.
  int skip = n > 2 ? 2 : n;
  size_t len = static_cast<size_t>(n - skip);
  size_t at = g_sample_end.fetch_add(len + 1, std::memory_order_relaxed);
  if (at + len + 1 > kSampleWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_samples[at] = len;
  for (size_t i = 0; i < len; ++i) {
    g_samples[at + 1 + i] = reinterpret_cast<uintptr_t>(frames[skip + i]);
  }
}

void WriteAddress(FILE* out, uintptr_t pc) {
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) == 0 ||
      info.dli_fname == nullptr) {
    std::fprintf(out, " ?:0");
    return;
  }
  uintptr_t base = reinterpret_cast<uintptr_t>(info.dli_fbase);
  const auto* ehdr = static_cast<const Elf64_Ehdr*>(info.dli_fbase);
  // addr2line wants link-time addresses: absolute in a fixed-address
  // executable, base-relative in a position-independent object.
  uintptr_t addr = ehdr->e_type == ET_EXEC ? pc : pc - base;
  std::fprintf(out, " %s:%lx", info.dli_fname,
               static_cast<unsigned long>(addr));
}

__attribute__((constructor)) void Start() {
  // Warm the unwinder up (its first call loads libgcc_s and may allocate).
  void* warm[4];
  t_in_unwind = true;
  backtrace(warm, 4);
  t_in_unwind = false;
  const char* mode = std::getenv("XSB_PROFILE_MODE");
  g_alloc_stacks = mode == nullptr || std::strcmp(mode, "cpu") != 0;
  g_active.store(true);
  if (g_alloc_stacks) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProfSignal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / 997;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void Stop() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(false);
  const char* path = std::getenv("XSB_PROFILE_OUT");
  if (path == nullptr) return;
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fprintf(out, "allocations %llu\ndropped %llu\n",
               static_cast<unsigned long long>(g_allocations.load()),
               static_cast<unsigned long long>(g_dropped.load()));
  size_t end = g_sample_end.load();
  if (end > kSampleWords) end = kSampleWords;
  for (size_t at = 0; at < end;) {
    size_t len = g_samples[at];
    if (at + 1 + len > end) break;
    std::fprintf(out, "S");
    for (size_t i = 0; i < len; ++i) WriteAddress(out, g_samples[at + 1 + i]);
    std::fprintf(out, "\n");
    at += len + 1;
  }
  for (const Site& site : g_sites) {
    if (site.hash.load() == 0) continue;
    std::fprintf(out, "A %llu", static_cast<unsigned long long>(site.count));
    for (int i = 0; i < site.depth; ++i) WriteAddress(out, site.frames[i]);
    std::fprintf(out, "\n");
  }
  std::fclose(out);
}

void* CountedAlloc(std::size_t n, std::size_t align) {
  RecordAllocation();
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlloc(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
