#!/usr/bin/env python3
"""Render EXPERIMENTS.md's gated paper tables from BENCH_paper.json.

Each rendered table sits between two marker comments; the opening one names
the bench and the table in BENCH_paper.json it quotes:

    <!-- paper-table fig4_gups gups -->
    | PEs | Total MOPS | ... |
    <!-- /paper-table -->

The headers and cells are the JSON's strings, verbatim, so the prose tables
cannot drift from the gated values. A marker's indentation is kept on every
line of its table.

Usage: scripts/render_experiments.py [--check] [BENCH_paper.json] [EXPERIMENTS.md]
  (defaults: BENCH_paper.json, EXPERIMENTS.md, both at the repo root)
  without --check: rewrite EXPERIMENTS.md in place
  with --check:    print a diff and exit 1 when EXPERIMENTS.md differs from
                   its rendering (scripts/check.sh stage 17)
"""

import difflib
import json
import pathlib
import re
import sys

BEGIN = re.compile(r"^(\s*)<!-- paper-table (\S+) (\S+) -->$")
END = "<!-- /paper-table -->"


def table_lines(table, indent):
    rows = [table["headers"], ["--:"] * len(table["headers"])] + table["rows"]
    return [indent + "| " + " | ".join(cells) + " |" for cells in rows]


def render(paper, text):
    out, lines, i = [], text.split("\n"), 0
    while i < len(lines):
        out.append(lines[i])
        m = BEGIN.match(lines[i])
        i += 1
        if not m:
            continue
        indent, bench, name = m.groups()
        end = next((j for j in range(i, len(lines))
                    if lines[j].strip() == END), None)
        if end is None:
            sys.exit(f"render_experiments: no {END} after {bench} {name}")
        out += table_lines(paper[bench][name], indent)
        out.append(lines[end])
        i = end + 1
    return "\n".join(out)


def main(argv):
    check = "--check" in argv
    args = [a for a in argv if a != "--check"]
    root = pathlib.Path(__file__).resolve().parent.parent
    paper_path = pathlib.Path(args[0]) if args else root / "BENCH_paper.json"
    doc_path = pathlib.Path(args[1]) if len(args) > 1 else root / "EXPERIMENTS.md"
    paper = json.loads(paper_path.read_text())
    text = doc_path.read_text()
    rendered = render(paper, text)
    if not check:
        doc_path.write_text(rendered)
        return 0
    if rendered == text:
        print(f"{doc_path.name} quotes {paper_path.name} verbatim")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        text.splitlines(True), rendered.splitlines(True),
        f"{doc_path.name} (committed)", f"{doc_path.name} (rendered)"))
    print(f"{doc_path.name} differs from {paper_path.name}; run "
          "scripts/render_experiments.py to re-render it")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
