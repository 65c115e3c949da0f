#!/usr/bin/env bash
# Regenerate BENCH_paper.json: the paper's own results as modeled values.
# It holds Fig. 3's tree edges, Tables 1-2, Fig. 4 (GUPs) and Fig. 5 (NAS IS
# class W) at 1/2/4/8 PEs, and the cycle counts of ablations A1, A4, A6 and
# A7. Each bench writes its tables with --json; this script runs them side
# by side and joins their files in a fixed order. Every value is modeled, so
# a regeneration on any host must match the committed file byte for byte
# (scripts/check.sh stage 17).
#
# Usage: scripts/bench_paper.sh [build-dir] [out]
#        (defaults: build, BENCH_paper.json)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="${2:-BENCH_paper.json}"
PARTS="$(mktemp -d)"
trap 'rm -rf "$PARTS"' EXIT

BENCHES=(
  "bench_fig3_tree_schedule --pes 8"
  "bench_table1_types"
  "bench_table2_rankmap"
  "bench_fig4_gups --pes 1,2,4,8"
  "bench_fig5_is --class W --pes 1,2,4,8"
  "bench_ablation_tree_vs_linear"
  "bench_ablation_barrier"
  "bench_ablation_largemsg"
  "bench_ablation_hierarchical"
)

pids=()
for spec in "${BENCHES[@]}"; do
  read -r -a cmd <<< "$spec"
  "$BUILD/bench/${cmd[0]}" "${cmd[@]:1}" --json "$PARTS/${cmd[0]}.json" \
      > "$PARTS/${cmd[0]}.out" &
  pids+=("$!")
done
for pid in "${pids[@]}"; do wait "$pid"; done

python3 - "$PARTS" "$OUT" "${BENCHES[@]}" <<'EOF'
import json, sys

parts, out, specs = sys.argv[1], sys.argv[2], sys.argv[3:]

def row(cells):
    return "[" + ", ".join(json.dumps(c) for c in cells) + "]"

lines = ["{"]
for i, spec in enumerate(specs):
    name = spec.split()[0]
    part = json.load(open(f"{parts}/{name}.json"))
    lines.append(f'  {json.dumps(part["bench"])}: {{')
    tables = list(part["tables"].items())
    for j, (title, table) in enumerate(tables):
        lines.append(f'    {json.dumps(title)}: {{')
        lines.append(f'      "headers": {row(table["headers"])},')
        lines.append('      "rows": [')
        rows = table["rows"]
        for k, cells in enumerate(rows):
            lines.append("        " + row(cells) + ("," if k + 1 < len(rows) else ""))
        lines.append("      ]")
        lines.append("    }" + ("," if j + 1 < len(tables) else ""))
    lines.append("  }" + ("," if i + 1 < len(specs) else ""))
lines.append("}")
with open(out, "w") as f:
    f.write("\n".join(lines) + "\n")
print(f"wrote {out}")
EOF
