"""Write survey_fields.json, the candidate fields of the survey's norm slots.

    PYTHONPATH=src python3 perfbench/survey_fields.py

Each norm slot of the ``survey`` workload fixes a narrow range of D and a
class number h; the benchmark's seed picks one field per slot from this list.
Fixing (range, h) per slot keeps the cost and memory of a pass steady across
seeds, because the norm's coefficient tables scale with h and its approximate
functional equation with sqrt(D).

The class numbers are measured, not chosen.  In each of four narrow bins of D
a fixed scan draws D log-uniformly, as the survey's field stream does, and
keeps the norm fields: those whose class group builds (at most two prime
discriminant factors; with more the group is not cyclic and ClassGroup
refuses it) and has a character that is not norm-induced.  The bin's two
slots take the lower and upper quartile of the class numbers of the norm
fields found, a two-point stand-in for the distribution of table sizes that a
free draw meets there.  The file records each bin's class-number counts.
Each run checks h again, so the list is also a reference for ClassGroup.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

from maassforge.classforms import ClassGroup
from maassforge.heckechar import make_class_character
from maassforge.quadfield import QuadField

from run import genus_t

# Bounds of D: +-12% around 1.5e4, 5e4, 1.6e5 and 5e5, spanning the survey's range.
BINS = ((13_400, 16_800), (44_600, 56_000), (142_900, 179_200), (446_400, 560_000))
SCAN = 120  # norm fields per bin whose class numbers give the quartiles (the lowest bin has 179)
QUARTILES = (0.25, 0.75)
PER_SLOT = 12
OUT = Path(__file__).with_name("survey_fields.json")


def norm_field_h(D: int) -> int:
    """h_narrow if the survey computes a norm for Q(sqrt D), else 0."""
    if genus_t(D) not in (1, 2):
        return 0
    try:
        cg = ClassGroup(QuadField(D))
    except ArithmeticError:
        return 0
    if any(not make_class_character(cg, k).is_norm_induced() for k in range(1, cg.h_narrow)):
        return cg.h_narrow
    return 0


def scan_bin(rng: random.Random, lo: int, hi: int) -> tuple[dict, list[dict]]:
    found: dict[int, int] = {}  # D -> h, in draw order
    seen: set[int] = set()

    def draw() -> None:
        if len(seen) == hi - lo:
            raise SystemExit(f"[{lo}, {hi}) has too few norm fields")
        D = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if D not in seen:
            seen.add(D)
            h = norm_field_h(D)
            if h:
                found[D] = h

    while len(found) < SCAN:
        draw()
    hs = sorted(found.values())
    slot_h = [hs[math.ceil(q * len(hs)) - 1] for q in QUARTILES]
    while any(sum(h == s for h in found.values()) < PER_SLOT for s in slot_h):
        draw()
    counts = Counter(list(found.values())[:SCAN])
    scan = {"d_range": [lo, hi], "norm_fields": SCAN, "h_counts": {str(h): counts[h] for h in sorted(counts)}}
    slots = [
        {"d_range": [lo, hi], "quartile": q, "h_narrow": s, "fields": sorted([D for D, h in found.items() if h == s][:PER_SLOT])}
        for q, s in zip(QUARTILES, slot_h)
    ]
    return scan, slots


def main() -> None:
    rng = random.Random(20260117)
    scans, slots = [], []
    for lo, hi in BINS:
        scan, bin_slots = scan_bin(rng, lo, hi)
        scans.append(scan)
        slots += bin_slots
    OUT.write_text(json.dumps({"scans": scans, "slots": slots}, indent=1) + "\n")


if __name__ == "__main__":
    main()
