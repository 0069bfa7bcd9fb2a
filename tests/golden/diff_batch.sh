#!/bin/sh
# Diff `llamp batch` output over a request file against its golden (the
# byte wall CI also runs; ctest registers it at 1 and 4 threads).  The
# bytes are diffed first; then `llamp batch` must exit 1 exactly when the
# golden holds an error line (any failing line makes the batch exit 1) and
# 0 otherwise, so a corpus may pin an expected error.
# Usage: tests/golden/diff_batch.sh <llamp> <requests.jsonl> <golden> <threads>
set -eu
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
status=0
"$1" batch --file "$2" --threads "$4" > "$out" || status=$?
diff "$3" "$out"
want=0
if grep -Eq '^\{"id": [0-9]+, "op": "[a-z]+", "error": ' "$3"; then want=1; fi
if [ "$status" -ne "$want" ]; then
  echo "llamp batch exited $status, expected $want" >&2
  exit 1
fi
