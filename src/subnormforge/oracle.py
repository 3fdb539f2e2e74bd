"""Brute-force verification of algebraic laws on rational grids.

Works on any binary operation on [0,1] (exact Fraction results, or
approximate results carrying an error radius).  Exhaustive scans report
the lexicographically first counterexample; on approximate values a
violation is only reported when it exceeds the carried radii, and
borderline comparisons surface as notes instead of verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .classify import PROPERTIES, arg_with_value, classify
from .generated import GeneratedOp, f_eval, make_op
from .intervals import ONE, ZERO, frac
from .pwfn import PiecewiseMonotoneFn, decompose
from .tnorms import TNormDescriptor, approx_diff

PROPERTY_NAMES = (
    "commutativity",
    "monotonicity",
    "bounded_by_min",
    "associativity",
    "neutral_one",
    "conditional_cancellation",
    "cancellation",
    "strict_monotonicity",
    "archimedean_at",
)


@dataclass(frozen=True)
class Counterexample:
    property: str
    inputs: tuple
    lhs: object
    rhs: object

    def __str__(self):
        ins = ",".join(str(i) for i in self.inputs)
        return f"{self.property} at ({ins}): {self.lhs} vs {self.rhs}"


@dataclass
class CheckResult:
    ok: bool
    counterexample: Optional[Counterexample] = None
    note: Optional[str] = None
    checked: int = 0


class _Memo:
    """Pair-memoizing wrapper around a binary operation."""

    def __init__(self, op: Callable):
        self.op = op
        self.cache = {}

    def __call__(self, x, y):
        key = (x, y)
        v = self.cache.get(key)
        if v is None:
            v = self.op(x, y)
            self.cache[key] = v
        return v


def grid(n: int, extra=()) -> list:
    """{0, 1/n, ..., 1} plus any extra rationals, sorted and deduplicated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = {Fraction(i, n) for i in range(n + 1)}
    pts.update(frac(e) for e in extra)
    return sorted(p for p in pts if 0 <= p <= 1)


def check_property(op: Callable, prop: str, pts, n_iter: int = 64) -> CheckResult:
    """Exhaustive scan of one law over the grid; the first counterexample
    in lexicographic input order is returned."""
    op = op if isinstance(op, _Memo) else _Memo(op)
    undecided = 0
    count = 0
    # comparisons are sign tests on (d, r) = approx_diff(a, b): a and b
    # differ when |d| > r and count as equal when their centres agree
    # (d == 0); a > b is certain when d > r, and a >= b when d >= r

    if prop == "commutativity":
        for x in pts:
            for y in pts:
                count += 1
                d, r = approx_diff(op(x, y), op(y, x))
                if abs(d) > r:
                    return CheckResult(False, Counterexample(
                        prop, (x, y), op(x, y), op(y, x)), checked=count)
                if d:
                    undecided += 1
    elif prop == "monotonicity":
        for x in pts:
            for i in range(len(pts) - 1):
                count += 1
                a, b = op(x, pts[i]), op(x, pts[i + 1])
                d, r = approx_diff(a, b)
                if d > r:
                    return CheckResult(False, Counterexample(
                        prop, (x, pts[i], pts[i + 1]), a, b), checked=count)
        for y in pts:
            for i in range(len(pts) - 1):
                count += 1
                a, b = op(pts[i], y), op(pts[i + 1], y)
                d, r = approx_diff(a, b)
                if d > r:
                    return CheckResult(False, Counterexample(
                        prop, (pts[i], pts[i + 1], y), a, b), checked=count)
    elif prop == "bounded_by_min":
        for x in pts:
            for y in pts:
                count += 1
                v = op(x, y)
                d, r = approx_diff(v, min(x, y))
                if d > r:
                    return CheckResult(False, Counterexample(
                        prop, (x, y), v, min(x, y)), checked=count)
    elif prop == "associativity":
        m = len(pts)
        for x in pts:
            for y in pts:
                xy, _ = approx_diff(op(x, y), ZERO)
                for z in pts:
                    count += 1
                    lhs = op(xy, z)
                    rhs = op(x, approx_diff(op(y, z), ZERO)[0])
                    d, r = approx_diff(lhs, rhs)
                    if abs(d) > r:
                        return CheckResult(False, Counterexample(
                            prop, (x, y, z), lhs, rhs), checked=count)
                    if d:
                        undecided += 1
        assert count == m ** 3, "associativity scan must cover the full cube"
    elif prop == "neutral_one":
        for x in pts:
            count += 1
            v = op(x, ONE)
            d, r = approx_diff(v, x)
            if abs(d) > r:
                return CheckResult(False, Counterexample(
                    prop, (x,), v, x), checked=count)
            if d:
                undecided += 1
    elif prop == "conditional_cancellation":
        for x in pts:
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    count += 1
                    a, b = op(x, pts[i]), op(x, pts[j])
                    if approx_diff(a, b)[0] == 0:
                        va, ra = approx_diff(a, ZERO)
                        if va > ra:
                            return CheckResult(False, Counterexample(
                                prop, (x, pts[i], pts[j]), a, b), checked=count)
    elif prop == "cancellation":
        for x in pts:
            if x == 0:
                continue
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    count += 1
                    a, b = op(x, pts[i]), op(x, pts[j])
                    if approx_diff(a, b)[0] == 0:
                        return CheckResult(False, Counterexample(
                            prop, (x, pts[i], pts[j]), a, b), checked=count)
    elif prop == "strict_monotonicity":
        for x in pts:
            if x == 0:
                continue
            for i in range(len(pts) - 1):
                count += 1
                a, b = op(x, pts[i]), op(x, pts[i + 1])
                d, r = approx_diff(a, b)
                if d >= r:
                    return CheckResult(False, Counterexample(
                        prop, (x, pts[i], pts[i + 1]), a, b), checked=count)
    elif prop == "archimedean_at":
        # asymptotic property: failure to descend within the cap is
        # reported as a note, never as a counterexample
        missing = []
        interior = [p for p in pts if 0 < p < 1]
        for x in interior:
            acc = x
            floor = min(interior) if interior else ONE
            hit = False
            for _ in range(n_iter):
                acc, _ = approx_diff(op(acc, x), ZERO)
                count += 1
                if acc < floor:
                    hit = True
                    break
            if not hit:
                missing.append(x)
        if missing:
            return CheckResult(True, note="not witnessed at cap for x in "
                              + ",".join(str(m) for m in missing),
                              checked=count)
    else:
        raise ValueError(f"unknown property {prop!r}")

    note = f"{undecided} comparisons undecided within error radii" if undecided else None
    return CheckResult(True, note=note, checked=count)


def scan_continuity(op: Callable, breakpoints, pts,
                    delta: Fraction = Fraction(1, 1000),
                    threshold: float = 0.05):
    """Numeric jump detection: around every breakpoint pair, compare the
    operation at the four perturbed corners; a spread above the threshold
    flags a jump.  Returns the list of flagged locations."""
    probes = sorted(set(frac(b) for b in breakpoints) | {ONE})
    jumps = []
    for a in probes:
        for b in sorted(set(pts) | set(probes)):
            corners = []
            for da in (-delta, ZERO, delta):
                for db in (-delta, ZERO, delta):
                    x, y = a + da, b + db
                    if 0 <= x <= 1 and 0 <= y <= 1:
                        corners.append(float(op(x, y)))
            if corners and max(corners) - min(corners) > threshold:
                jumps.append((a, b))
    return jumps


# -- classifier/oracle agreement --------------------------------------------

_LAWS = {
    "t_subnorm": ("commutativity", "monotonicity", "bounded_by_min",
                  "associativity"),
    "t_norm": ("commutativity", "monotonicity", "bounded_by_min",
               "associativity", "neutral_one"),
    "conditionally_cancellative": ("conditional_cancellation",),
    "cancellative": ("cancellation",),
    "strictly_monotone_op": ("strict_monotonicity",),
    "archimedean": ("archimedean_at",),
}


@dataclass
class HarnessReport:
    rows: list = field(default_factory=list)  # (property, classifier, oracle, detail)
    hard_failures: list = field(default_factory=list)
    counterexamples: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def render(self) -> str:
        lines = ["property                    classifier  oracle"]
        for prop, cstat, ostat, detail in self.rows:
            line = f"{prop:<28}{cstat:<12}{ostat}"
            if detail:
                line += f"  {detail}"
            lines.append(line)
        if self.hard_failures:
            lines.append("HARD FAILURES: " + "; ".join(self.hard_failures))
        else:
            lines.append("no classifier/oracle contradictions")
        return "\n".join(lines) + "\n"


def default_extra(f: PiecewiseMonotoneFn) -> list:
    """Breakpoints of f plus argument preimages of the gap boundary values,
    so grids exercise every discontinuity."""
    extra = set(f.breakpoints())
    if f.nondecreasing:
        d = decompose(f)
        for b, dd, c in d.s:
            for v in (b, dd, c):
                x = arg_with_value(f, v)
                if x is not None:
                    extra.add(x)
    return sorted(extra)


def consistency_harness(f: PiecewiseMonotoneFn, t: TNormDescriptor,
                        n: int = 12, arch_grid_n: int = 8,
                        n_iter: int = 64) -> HarnessReport:
    """Classify, then re-check every classified law by brute force; a Yes
    verdict alongside an oracle counterexample is a hard failure."""
    op = make_op(f, t)
    memo = _Memo(lambda x, y: f_eval(op, x, y))
    pts = grid(n, default_extra(f))
    report = classify(f, t, arch_grid_n=arch_grid_n)
    out = HarnessReport()
    results = {}  # law -> CheckResult; t_norm shares four laws with t_subnorm
    for prop in PROPERTIES:
        v = report.properties[prop]
        laws = _LAWS.get(prop)
        if laws is None:
            out.rows.append((prop, v.status, "-", ""))
            continue
        failed = None
        notes = []
        for law in laws:
            res = results.get(law)
            if res is None:
                res = results[law] = check_property(memo, law, pts, n_iter=n_iter)
            if not res.ok:
                failed = res.counterexample
                break
            if res.note:
                notes.append(res.note)
        if failed is not None:
            out.counterexamples[prop] = failed
            out.rows.append((prop, v.status, "counterexample", str(failed)))
            if v.status == "yes":
                out.hard_failures.append(f"{prop}: classifier Yes but {failed}")
        else:
            out.rows.append((prop, v.status, "ok", "; ".join(notes)))
    return out
