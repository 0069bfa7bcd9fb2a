#!/bin/sh
# Reachability of the llamp binary as a checked build output.
#
# Builds llamp with gcc at -O0, one section per function, and links it with
# --gc-sections --print-gc-sections.  Every dropped .text section whose
# symbol is a strong (nm type T) llamp:: function of libllamp_lib.a is a
# function the binary never reaches; -O0 and the strong-symbol filter keep
# inlined copies and COMDAT instances out of the list.  The list must equal
# unreached.txt beside this script, whose lines read
#   <demangled symbol>  # <its non-daemon user: a test, bench or example>
# A new unreached function fails the check until it is listed with a user
# or deleted.
#
# Usage: tests/reachability/check.sh [build-dir]   (default: build-reach)
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build=${1:-build-reach}

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_COMPILER=g++ -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections,--print-gc-sections \
  -DLLAMP_BUILD_TESTS=OFF -DLLAMP_BUILD_BENCHES=OFF \
  -DLLAMP_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$build" -j "$(nproc)" --target llamp_lib > /dev/null
# Relink so the linker prints the dropped sections again.
rm -f "$build/llamp"
log="$build/llamp-link.log"
if ! cmake --build "$build" --target llamp > "$log" 2>&1; then
  cat "$log"
  exit 1
fi

grep -o "removing unused section '\.text\.[^']*' in file 'libllamp_lib\.a(" \
    "$log" | sed "s/^removing unused section '\.text\.//; s/'.*//" |
  LC_ALL=C sort -u > "$build/dropped.txt"
nm "$build/libllamp_lib.a" | awk '$2 == "T" { print $3 }' |
  LC_ALL=C sort -u > "$build/strong.txt"
LC_ALL=C comm -12 "$build/dropped.txt" "$build/strong.txt" | c++filt |
  grep '^llamp::' | LC_ALL=C sort > "$build/unreached.txt"

if grep -v '^#' "$here/unreached.txt" | grep . | grep -v '  # .' ; then
  echo "unreached.txt: the lines above name no user" >&2
  exit 1
fi
grep -v '^#' "$here/unreached.txt" | grep . | sed 's/  # .*//' |
  LC_ALL=C sort > "$build/expected.txt"
if ! diff -u "$build/expected.txt" "$build/unreached.txt"; then
  echo "llamp's unreached functions differ from $here/unreached.txt" \
    "(+: newly unreached; list it with its user, or delete it)" >&2
  exit 1
fi
echo "reachability: $(wc -l < "$build/unreached.txt") unreached functions," \
  "all listed"
