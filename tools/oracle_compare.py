"""Tolerance comparison of two byte_oracle.sh output directories.

Usage: python tools/oracle_compare.py OUT OTHER_OUT [--rtol 1e-9]

Numeric files are compared value by value: CSV cells, summary.json values
and checkpoint arrays (*.bin). Their non-numeric parts (headers, keys,
shapes, text cells) must be equal. Every other file is compared byte for
byte; one that differs is listed with its differing lines, for the reader
to judge, since free-text detail strings such as finite-difference errors
move with the low-order bits. The relative difference of two numbers is
|a - b| / max(|a|, |b|), 0 when both are 0.

Prints one line per numeric file with its largest relative difference and
exits 1 if a file is missing on one side, a numeric file's structure
differs, or a difference exceeds rtol; 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from restorect import ndtensor as nd  # noqa: E402

STEPS = ("a", "b", "c", "d", "e")
MAX_SHOWN_LINES = 10


class StructureMismatch(ValueError):
    """The two files differ in something other than numeric values."""


def listed_files(root: Path) -> set:
    """The files byte_oracle.sh lists, relative to root."""
    return {
        str(p.relative_to(root)) for step in STEPS for p in (root / step).rglob("*")
        if p.is_file() and "timing" not in p.name and p.name != "check_report.json"
    }


def rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), 0.0).max(initial=0.0))


def as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(a: Path, b: Path) -> float:
    with open(a, newline="", encoding="utf-8") as fa, open(b, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise StructureMismatch("row or column counts differ")
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            fx, fy = as_float(x), as_float(y)
            if fx is None or fy is None:
                if x != y:
                    raise StructureMismatch(f"text cells differ: {x!r} vs {y!r}")
            else:
                worst = max(worst, rel_diff(fx, fy))
    return worst


def compare_json_values(x, y, path="$") -> float:
    numeric = (int, float)
    if isinstance(x, numeric) and isinstance(y, numeric) \
            and not isinstance(x, bool) and not isinstance(y, bool):
        return rel_diff(x, y)
    if type(x) is not type(y):
        raise StructureMismatch(f"{path}: types differ")
    if isinstance(x, dict):
        if x.keys() != y.keys():
            raise StructureMismatch(f"{path}: keys differ")
        return max((compare_json_values(x[k], y[k], f"{path}.{k}") for k in x), default=0.0)
    if isinstance(x, list):
        if len(x) != len(y):
            raise StructureMismatch(f"{path}: lengths differ")
        return max((compare_json_values(u, w, f"{path}[{i}]") for i, (u, w) in enumerate(zip(x, y))),
                   default=0.0)
    if x != y:
        raise StructureMismatch(f"{path}: {x!r} vs {y!r}")
    return 0.0


def compare_json(a: Path, b: Path) -> float:
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        return compare_json_values(json.load(fa), json.load(fb))


def compare_bin(a: Path, b: Path) -> float:
    x, y = nd.load_tensor(a), nd.load_tensor(b)
    if x.shape != y.shape:
        raise StructureMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    return rel_diff(x, y)


NUMERIC = {".csv": compare_csv, ".json": compare_json, ".bin": compare_bin}


def differing_lines(a: Path, b: Path) -> list:
    la = a.read_text(encoding="utf-8", errors="replace").splitlines()
    lb = b.read_text(encoding="utf-8", errors="replace").splitlines()
    out = [f"  - {x}\n  + {y}" for x, y in zip(la, lb) if x != y]
    if len(la) != len(lb):
        out.append(f"  line counts differ: {len(la)} vs {len(lb)}")
    return out


def compare(out: Path, other: Path, rtol: float) -> bool:
    files_a, files_b = listed_files(out), listed_files(other)
    ok = True
    for name in sorted(files_a ^ files_b):
        print(f"MISSING {name}: only under {out if name in files_a else other}")
        ok = False
    worst_all, byte_different = 0.0, []
    for name in sorted(files_a & files_b):
        a, b = out / name, other / name
        if a.read_bytes() == b.read_bytes():
            if Path(name).suffix in NUMERIC:
                print(f"within  {name}: max rel diff 0 (identical bytes)")
            continue
        if Path(name).suffix not in NUMERIC:
            byte_different.append(name)
            continue
        try:
            worst = NUMERIC[Path(name).suffix](a, b)
        except StructureMismatch as err:
            print(f"FAIL    {name}: {err}")
            ok = False
            continue
        worst_all = max(worst_all, worst)
        within = worst <= rtol
        ok = ok and within
        print(f"{'within' if within else 'FAIL  '}  {name}: max rel diff {worst:.3e}")
    for name in byte_different:
        lines = differing_lines(out / name, other / name)
        print(f"bytes   {name}: differs")
        for line in lines[:MAX_SHOWN_LINES]:
            print(line)
    print(f"numeric files: max rel diff {worst_all:.3e} (rtol {rtol:.1e}); "
          f"other files differing byte for byte: {len(byte_different)}")
    print("verdict: " + ("PASS" if ok else "FAIL"))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("other", type=Path)
    ap.add_argument("--rtol", type=float, default=1e-9)
    args = ap.parse_args(argv)
    return 0 if compare(args.out, args.other, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
