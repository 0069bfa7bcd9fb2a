#!/bin/sh
# Regenerate the golden outputs pinned by tests/test_golden.cpp and CI.
# Usage: tests/golden/regen.sh [path-to-llamp-binary]
# Keep the invocations here in sync with the GoldenCase list in the test.
set -eu
llamp="${1:-build/llamp}"
dir="$(dirname "$0")"

"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  > "$dir/analyze_lulesh.table.golden"
"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  --format=csv > "$dir/analyze_lulesh.csv.golden"
"$llamp" analyze --app=lulesh --ranks=8 --scale=0.05 --points=3 --dl-max-us=50 \
  --format=json > "$dir/analyze_lulesh.json.golden"

"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  > "$dir/sweep_hpcg.table.golden"
"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  --format=csv > "$dir/sweep_hpcg.csv.golden"
"$llamp" sweep --app=hpcg --ranks=8 --scale=0.05 --points=4 --dl-max-us=30 \
  --format=json > "$dir/sweep_hpcg.json.golden"

"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 > "$dir/campaign_grid.table.golden"
"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 --format=csv \
  > "$dir/campaign_grid.csv.golden"
"$llamp" campaign --apps=lulesh,hpcg,milc --ranks=8,27 --topos=none,fat-tree \
  --scales=0.02 --points=3 --dl-max-us=20 --format=json \
  > "$dir/campaign_grid.json.golden"

# Batch output over one analyze per cold-distinct benchmark class; CI diffs
# `llamp batch` at 1 and 4 threads against it.
"$llamp" batch --file="$dir/../../examples/cold_requests.jsonl" --threads=1 \
  > "$dir/cold_requests.jsonl.golden"

# Batch output over topo, place and both mc paths (L-only fast path, edge
# noise) on lulesh, hpcg and milc; CI diffs it at 1 and 4 threads too.
"$llamp" batch --file="$dir/../../examples/solver_requests.jsonl" --threads=1 \
  > "$dir/solver_requests.jsonl.golden"

# Schedgen graph digests, written by the test_golden binary built beside
# the llamp binary (see GoldenGraphs in tests/test_golden.cpp).
LLAMP_REGEN_GRAPHS_GOLDEN="$dir/graphs.golden" \
  "$(dirname "$llamp")/test_golden" --gtest_filter='GoldenGraphs.*' > /dev/null

echo "regenerated $(ls "$dir"/*.golden | wc -l) golden files in $dir"
