"""Seeded corpus of non-decreasing piecewise linear functions, as text.

The benchmark owns this generator so that an edit to the test suite cannot
change what the benchmark measures.  The random shapes follow the test
suite's random function builder (up to 6 pieces, breakpoints and values on
the sixteenths, constant pieces, upward jumps between pieces) and add the
shapes it never emits but the README's worked examples use: isolated
``point`` pieces (at 0, at 1 or between two open segment ends) and
open-left segments such as ``(1/2,1]``.  The six worked examples are
appended verbatim.  Everything is handed over as text so that parsing is
part of the measured path.
"""

from __future__ import annotations

import random
from fractions import Fraction

MAX_PIECES = 6
DEN = 16

WORKED_EXAMPLES = {
    "plateau": """\
monotone: nondecreasing
segment [0,1/2] const 1/2
segment (1/2,1] linear 1 0
""",
    "half_jump": """\
monotone: nondecreasing
segment [0,1) linear 1/2 0
point 1 = 1
""",
    "gap": """\
monotone: nondecreasing
segment [0,1/4) linear 1/2 0
segment [1/4,1] linear 13/12 -1/12
""",
    "shifted_jump": """\
monotone: nondecreasing
segment [0,1) linear 1/4 1/4
point 1 = 1
""",
    "step": """\
monotone: nondecreasing
segment [0,1/4) linear 1/4 1/4
segment [1/4,1/2] const 5/16
segment (1/2,1) linear 1/8 3/8
point 1 = 3/4
""",
    "identity": """\
monotone: nondecreasing
segment [0,1] linear 1 0
""",
}


def random_fn_text(rng: random.Random) -> str:
    """One random non-decreasing function in the text format."""
    grid = [Fraction(i, DEN) for i in range(DEN + 1)]
    k = rng.randint(1, MAX_PIECES)
    cuts = sorted(rng.sample(grid[1:-1], k - 1))
    bounds = [Fraction(0)] + cuts + [Fraction(1)]

    # values at the two ends of every segment
    ends = []
    lo = rng.choice([g for g in grid if g <= Fraction(1, 2)])
    for _ in range(k):
        if rng.random() < 0.35:
            lo = min(Fraction(1), lo + rng.choice(grid[: DEN // 2]))
        hi = lo if rng.random() < 0.3 else rng.choice([g for g in grid if g >= lo])
        ends.append((lo, hi))
        lo = hi

    # Which piece owns each breakpoint.  "right": the next segment starts
    # closed, as in the test suite's builder; "left": the previous segment
    # ends closed and the next starts open; "point": both ends are open and
    # an isolated point between the two one-sided values owns it.
    extended = rng.random() < 0.5
    owners = []
    for i in range(k + 1):
        if not extended:
            owners.append("right" if i < k else "left")
            continue
        r = rng.random()
        if i == 0:
            owners.append("point" if r < 0.15 else "right")
        elif i == k:
            owners.append("point" if r < 0.2 else "left")
        else:
            owners.append("right" if r < 0.55 else "left" if r < 0.8 else "point")

    lines = ["monotone: nondecreasing"]
    for i, x in enumerate(bounds):
        if owners[i] != "point":
            continue
        below = ends[i - 1][1] if i > 0 else Fraction(0)
        above = ends[i][0] if i < k else Fraction(1)
        v = rng.choice([g for g in grid if below <= g <= above])
        lines.append(f"point {x} = {v}")
    for i in range(k):
        a, b = bounds[i], bounds[i + 1]
        lo, hi = ends[i]
        dom = ("[" if owners[i] == "right" else "(") + f"{a},{b}" + (
            "]" if owners[i + 1] == "left" else ")")
        if lo == hi:
            lines.append(f"segment {dom} const {lo}")
        else:
            slope = (hi - lo) / (b - a)
            lines.append(f"segment {dom} linear {slope} {lo - slope * a}")
    return "\n".join(lines) + "\n"


def corpus(seed: int, n_random: int) -> list:
    """``n_random`` seeded random functions followed by the worked examples,
    as ``(name, text)`` pairs."""
    rng = random.Random(seed)
    out = [(f"r{i}", random_fn_text(rng)) for i in range(n_random)]
    out.extend(WORKED_EXAMPLES.items())
    return out
