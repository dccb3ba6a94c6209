#!/usr/bin/env bash
# Full check: style gates (clang-format / clang-tidy, skipped when the tools
# are not installed), then build and run the test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (the `asan-ubsan` CMake
# preset), then the tier-1 suite — which includes the concurrency stress
# tests — under ThreadSanitizer (the `tsan` preset), then — unless
# --sanitized-only is given — under the default RelWithDebInfo preset too.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
sanitized_only=0
[[ "${1:-}" == "--sanitized-only" ]] && sanitized_only=1

cxx_sources() {
  find src tests examples bench -name '*.cc' -o -name '*.h' -o -name '*.cpp'
}

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format check =="
  cxx_sources | xargs clang-format --dry-run --Werror
else
  echo "== clang-format not installed; skipping format check =="
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake --preset default >/dev/null
  find src -name '*.cc' | xargs clang-tidy -p build --quiet
else
  echo "== clang-tidy not installed; skipping lint check =="
fi

echo "== ASan+UBSan build =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
echo "== Stable test names =="
# gtest lists a parameter it cannot print as its raw bytes, pointers
# included, and ctest takes that listing into the test name: such a name
# changes from build to build. Give the parameter type a PrintTo.
if ctest --preset asan-ubsan -N | grep -e '-byte object <'; then
  echo "test names above carry raw parameter bytes" >&2
  exit 1
fi
echo "== ASan+UBSan tests =="
ctest --preset asan-ubsan -j "$jobs"

echo "== TSan build =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
echo "== TSan tier-1 + concurrency tests =="
ctest --preset tsan -L tier1 -j "$jobs"

if [[ "$sanitized_only" == 0 ]]; then
  echo "== Default build =="
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  echo "== Default tests =="
  ctest --preset default -j "$jobs"
fi

echo "All checks passed."
