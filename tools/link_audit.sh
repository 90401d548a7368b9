#!/usr/bin/env bash
# Link audit: library functions that no program links.
#
# Builds the library and its seven programs (bench_paper, the five
# examples and the perfbench runner) at -O0 with one section per function,
# links them with --gc-sections, and lists every flexmoe:: function that
# libflexmoe.a defines and no program keeps. Each such function must be on
# tools/link_audit_allowlist.txt (kept on purpose: test seams, functions
# tests use to observe behaviour, the goldens' digest parser); any other
# one is dead code and fails the audit. An allowlist entry that is now
# linked or gone fails it too, so the list shrinks with the code.
#
# usage: tools/link_audit.sh [build-dir]   (default: build-link-audit)
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-${root}/build-link-audit}"
allowlist="${root}/tools/link_audit_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B "${out}" -S "${root}" -DCMAKE_BUILD_TYPE=Debug \
  -DFLEXMOE_BUILD_TESTS=OFF \
  -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
cmake --build "${out}" -j"${jobs}" > /dev/null
g++ -std=c++17 -O0 -ffunction-sections -I"${root}/src" \
  "${root}/perfbench/runner.cc" "${out}/libflexmoe.a" -Wl,--gc-sections \
  -pthread -o "${out}/perfbench_runner"

cd "${out}"
programs=(bench_paper perfbench_runner compare_systems custom_policy
          flexmoe_sim quickstart trace_analysis)
# Defined text symbols, demangled, without nm's address column.
text_symbols() {
  nm -C --defined-only "$@" | awk '$2 == "T" || $2 == "t"' \
    | sed -E 's/^[0-9a-f]+ [Tt] //' | grep '^flexmoe::' | sort -u
}
text_symbols "${programs[@]}" > linked.txt
text_symbols libflexmoe.a > lib.txt
comm -23 lib.txt linked.txt > unlinked.txt
{ grep -v -e '^#' -e '^$' "${allowlist}" || true; } | sort -u > allowed.txt

status=0
unexpected="$(comm -23 unlinked.txt allowed.txt)"
if [ -n "${unexpected}" ]; then
  echo "link audit: library functions no program links (delete them, or"
  echo "add them to tools/link_audit_allowlist.txt with a reason):"
  echo "${unexpected}" | sed 's/^/  /'
  status=1
fi
stale="$(comm -13 unlinked.txt allowed.txt)"
if [ -n "${stale}" ]; then
  echo "link audit: allowlist entries now linked or gone (remove them):"
  echo "${stale}" | sed 's/^/  /'
  status=1
fi
echo "link audit: $(wc -l < unlinked.txt) unlinked library functions," \
  "$(echo -n "${unexpected}" | grep -c '^' || true) not on the allowlist," \
  "$(echo -n "${stale}" | grep -c '^' || true) stale allowlist entries"
exit "${status}"
