#!/bin/sh
# Diff `llamp batch` output over a request file against its golden (the
# byte wall CI also runs; ctest registers it at 1 and 4 threads).
# Usage: tests/golden/diff_batch.sh <llamp> <requests.jsonl> <golden> <threads>
set -eu
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
"$1" batch --file "$2" --threads "$4" > "$out"
diff "$3" "$out"
