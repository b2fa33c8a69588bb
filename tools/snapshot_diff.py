#!/usr/bin/env python3
"""Summarize how two snapshots of ``tools/snapshot_reports.py`` differ.

    python3 tools/snapshot_diff.py <snapshot-A> <snapshot-B>

Where ``diff -r`` lists every changed byte, this prints what a reviewer
checks:

* every change of a result's ``pass``, ``error`` or name, per config (a
  result is matched by name; a name that exists on one side only is paired
  with the unmatched name at the same position on the other, as a rename),
  every config whose ``error.txt`` differs, and every file on one side only;
* the largest relative change |a - b| / max(|a|, |b|) of every numeric
  report field (the top-level ones, ``details`` and ``meta``), with the
  result where it occurs;
* the largest relative change of every numeric CSV column, per CSV kind
  (the header), over entries at or above 1e-13 of the column's peak in
  their file; the entries below that (rounding-level entries, which may move
  by orders of magnitude) are summarized on their own line;
* the largest relative change of the ``band_edges.json`` values.

A field equal on both sides, nan against nan included, changes by 0; a
finite value against a non-finite one changes by inf.  The exit status is
1 when a ``pass``, ``error`` or name changed, or a file exists on one side
only, else 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: CSV entries below this share of their column's peak are reported apart
FLOOR_REL = 1e-13


def rel_change(a, b) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (nan and nan too), inf
    for a finite value against a non-finite one."""
    a, b = float(a), float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def as_number(value):
    """``value`` as a float when it is a number (report.json writes
    non-finite floats as the strings 'nan', 'inf' and '-inf'), else None."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value in ("nan", "inf", "-inf"):
        return float(value)
    return None


class Largest:
    """The largest relative change seen per key, with where it was seen."""

    def __init__(self):
        self.worst = {}       # key -> (change, where, count)

    def add(self, key: str, change: float, where: str) -> None:
        old = self.worst.get(key, (-1.0, "", 0))
        count = old[2] + 1
        self.worst[key] = (change, where, count) if change > old[0] else (*old[:2], count)

    def lines(self, title: str) -> list:
        out = [title]
        width = max((len(k) for k in self.worst), default=0)
        for key in sorted(self.worst):
            change, where, count = self.worst[key]
            at = f"  at {where}" if change > 0 else ""
            out.append(f"  {key:<{width}}  {change:.3g}  ({count} values){at}")
        if not self.worst:
            out.append("  (none)")
        return out


def numeric_fields(data: dict, prefix: str = ""):
    """(dotted name, number) of every numeric entry of a JSON object, nested
    objects and lists of numbers included."""
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from numeric_fields(value, name + ".")
        elif isinstance(value, list):
            for k, item in enumerate(value):
                if isinstance(item, dict):
                    yield from numeric_fields(item, f"{name}[{k}].")
                elif (x := as_number(item)) is not None:
                    yield f"{name}[]", k, x
        elif (x := as_number(value)) is not None:
            yield name, None, x


def field_map(data: dict) -> dict:
    return {(name, k): x for name, k, x in numeric_fields(data)}


def pair_results(a: list, b: list) -> list:
    """(result A, result B) pairs by name; leftover names pair by position."""
    names_b = {r["name"]: r for r in b}
    names_a = {r["name"] for r in a}
    pairs = [(r, names_b[r["name"]]) for r in a if r["name"] in names_b]
    only_a = [(k, r) for k, r in enumerate(a) if r["name"] not in names_b]
    only_b = {k: r for k, r in enumerate(b) if r["name"] not in names_a}
    for k, r in only_a:
        pairs.append((r, only_b.pop(k, None)))
    pairs.extend((None, r) for r in only_b.values())
    return pairs


def compare_reports(config: str, a: dict, b: dict, changes: list, fields: Largest) -> None:
    for ra, rb in pair_results(a["experiments"], b["experiments"]):
        if ra is None or rb is None:
            kept = ra or rb
            side = "A" if rb is None else "B"
            changes.append(f"{config}: {kept['name']} only in {side}")
            continue
        where = f"{config}: {rb['name']}"
        if ra["name"] != rb["name"]:
            changes.append(f"{config}: renamed {ra['name']} -> {rb['name']}")
        if ra["pass"] != rb["pass"]:
            changes.append(f"{where}: pass {ra['pass']} -> {rb['pass']}")
        ea, eb = ra["details"].get("error"), rb["details"].get("error")
        if ea != eb:
            changes.append(f"{where}: error {ea!r} -> {eb!r}")
        fa, fb = field_map(ra), field_map(rb)
        for key in fa.keys() & fb.keys():
            fields.add(key[0], rel_change(fa[key], fb[key]), where)
    ma, mb = field_map(a["meta"]), field_map(b["meta"])
    for key in ma.keys() & mb.keys():
        fields.add("meta." + key[0], rel_change(ma[key], mb[key]), config)


def read_csv(path: Path) -> tuple:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1]
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    return header, rows


def compare_csv(name: str, pa: Path, pb: Path, columns: Largest, floor: Largest,
                changes: list) -> None:
    (ha, rows_a), (hb, rows_b) = read_csv(pa), read_csv(pb)
    if ha != hb or len(rows_a) != len(rows_b):
        changes.append(f"{name}: header or row count differs")
        return
    for c, column in enumerate(ha.split(",")):
        values = [(ra[c], rb[c]) for ra, rb in zip(rows_a, rows_b)]
        peak = max((abs(x) for pair in values for x in pair if math.isfinite(x)),
                   default=0.0)
        key = f"{ha} :: {column}"
        for k, (x, y) in enumerate(values):
            where = f"{name} row {k + 1}"
            if max(abs(x), abs(y)) < FLOOR_REL * peak:
                floor.add(key, rel_change(x, y), where)
            else:
                columns.add(key, rel_change(x, y), where)


def files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root_a, root_b = (Path(a) for a in args)
    files_a, files_b = files(root_a), files(root_b)
    changes, fields = [], Largest()
    columns, floor, edges = Largest(), Largest(), Largest()
    for rel in sorted(files_a ^ files_b):
        changes.append(f"{rel} only in {'A' if rel in files_a else 'B'}")
    for rel in sorted(files_a & files_b):
        pa, pb = root_a / rel, root_b / rel
        if rel.endswith("report.json"):
            compare_reports(str(Path(rel).parent),
                            json.loads(pa.read_text(encoding="utf-8")),
                            json.loads(pb.read_text(encoding="utf-8")), changes, fields)
        elif rel.endswith(".csv"):
            compare_csv(rel, pa, pb, columns, floor, changes)
        elif rel.endswith("error.txt"):
            if pa.read_bytes() != pb.read_bytes():
                changes.append(f"{rel}: {pa.read_text().strip()!r} -> "
                               f"{pb.read_text().strip()!r}")
        elif rel == "band_edges.json":
            ea = json.loads(pa.read_text(encoding="utf-8"))
            eb = json.loads(pb.read_text(encoding="utf-8"))
            for name in sorted(ea.keys() & eb.keys()):
                if len(ea[name]) != len(eb[name]):
                    changes.append(f"band_edges.json: {name}: edge count differs")
                    continue
                for k, (x, y) in enumerate(zip(ea[name], eb[name])):
                    edges.add(name, rel_change(x, y), f"edge {k}")
    print(f"# snapshot diff: A = {root_a}, B = {root_b}")
    print(f"pass / error / name / file changes: {len(changes)}")
    print("\n".join(f"  {line}" for line in changes) or "  (none)")
    for block in (fields.lines("largest relative change per report field:"),
                  columns.lines("largest relative change per CSV column "
                                f"(entries >= {FLOOR_REL:g} of the column's peak):"),
                  floor.lines(f"CSV entries below {FLOOR_REL:g} of their column's peak:"),
                  edges.lines("largest relative change per band_edges.json symbol:")):
        print("\n".join(block))
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
