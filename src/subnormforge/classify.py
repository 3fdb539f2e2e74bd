"""Three-valued classification of the generated operation F.

Each property gets a Verdict: Yes with a list of exactly verified
conditions, No with a witness that re-checks by direct evaluation, or
Unknown with the resolution reached.  Yes verdicts are only emitted on
routes where the characterization theorems apply (strictly monotone,
continuous t-norms with exact rational evaluation, plus a corollary route
for continuous strictly increasing f with f(0)=0); everything else falls
back to Unknown and the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .generated import GeneratedOp, f_eval, make_op
from .intervals import Interval, IntervalSet, ONE, ZERO
from .pwfn import (
    Decomposition,
    PiecewiseMonotoneFn,
    approach_segment,
    decompose,
    eval_fn,
    plateau_set,
    side_limit,
)
from .tnorms import (Approx, TNormDescriptor, approx_diff, t_eval, t_image, t_solve_x,
                     t_preimage)

PROPERTIES = (
    "t_subnorm",
    "t_norm",
    "conditionally_cancellative",
    "cancellative",
    "strictly_monotone_op",
    "archimedean",
    "continuous",
    "proper",
)


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    evidence: tuple = ()
    witness: Optional[tuple] = None
    resolution: Optional[str] = None
    note: Optional[str] = None

    @staticmethod
    def yes(*evidence, note=None) -> "Verdict":
        return Verdict("yes", tuple(evidence), note=note)

    @staticmethod
    def no(witness, note=None) -> "Verdict":
        return Verdict("no", witness=witness, note=note)

    @staticmethod
    def unknown(resolution, note=None) -> "Verdict":
        return Verdict("unknown", resolution=resolution, note=note)


@dataclass
class ClassificationReport:
    properties: dict
    decomposition: Optional[Decomposition]
    conditions_log: list
    op: GeneratedOp = field(repr=False, compare=False)  # the operation classified

    def verdict(self, name: str) -> Verdict:
        return self.properties[name]


# -- small helpers ----------------------------------------------------------


# All p/q in (0,1] with q <= 32, once each, in ascending denominator
# order: the deterministic search order of the witness builders.
_PQ_VALUES = tuple(dict.fromkeys(
    Fraction(p, q) for q in range(1, 33) for p in range(1, q + 1)))


def arg_with_value(f: PiecewiseMonotoneFn, v: Fraction, avoid=None):
    """Some x with f(x)=v, optionally distinct from `avoid`; None if v is
    not attained (or only attained at `avoid`)."""
    for p, vals in zip(f.segments, f._values):
        if not vals.contains(v):
            continue
        d = p.domain
        if p.is_const:
            for cand in (d.lo if d.lo_closed else None, d.midpoint(),
                         d.hi if d.hi_closed else None):
                if cand is not None and d.contains(cand) and cand != avoid:
                    return cand
        else:
            x = (v - p.intercept) / p.slope
            if x != avoid:
                return x
    return None


# Interior probes per part in _dense_samples.
DENSE_PROBES = 4


def _dense_samples(s: IntervalSet) -> list:
    """Several interior points per part (plus closed endpoints), so that
    even a single open interval contributes multiple probes."""
    out = set()
    for p in s.parts:
        if p.lo_closed:
            out.add(p.lo)
        if p.hi_closed:
            out.add(p.hi)
        if p.lo < p.hi:
            for j in range(1, DENSE_PROBES + 1):
                out.add(p.lo + (p.hi - p.lo) * Fraction(j, DENSE_PROBES + 1))
    return sorted(out)


def _plateau_pair(f: PiecewiseMonotoneFn, w: Fraction):
    """(x1, x2) with x1 != x2 and f(x1) = f(x2) = w, for a value w in
    plateau_set(f), found once per function and value (``f._plateau_pairs``).
    When the only piece taking w is a constant piece open at both ends,
    arg_with_value finds its midpoint x1 alone; then x2 is halfway between
    x1 and the piece's lower end."""
    pair = f._plateau_pairs.get(w)
    if pair is None:
        x1 = arg_with_value(f, w)
        x2 = arg_with_value(f, w, avoid=x1)
        if x2 is None:
            x2 = (x1 + approach_segment(f, x1, "left").domain.lo) / 2
        pair = f._plateau_pairs[w] = x1, x2
    return pair


# -- degenerate shapes ------------------------------------------------------


def check_degenerate(op: GeneratedOp, top):
    """Forced verdicts when the generated operation collapses; `top` is
    F(1,1).

    Non-increasing f vanishing on (0,1] gives F identically 0; for
    non-decreasing f, a plateau value attained at 1 (or approached at 1
    with f(1) off the plateau) forces F to be zero away from (1,1) if the
    conditional cancellation law is to hold at all.  Returns a dict of
    every property but ``proper``, which ``classify`` decides for every f,
    or None when none of these shapes apply.
    """
    f = op.f
    if not f.nondecreasing:
        # f is non-increasing with values in [0,1], so it vanishes on
        # (0,1] exactly when its limit at 0 from the right is 0
        if side_limit(f, ZERO, "right") == 0:
            return _vanishing_verdicts(top, "F identically 0", "f vanishes on (0,1]")
        return _undecided("non-increasing f outside the vanishing case; use the oracle")

    q = plateau_set(f)
    f1 = eval_fn(f, ONE)
    if q.contains(f1):
        x1, x2 = _plateau_pair(f, f1)
        return _plateau_at_one(f1, x1, x2, top, top,
                               "F identically 0", "plateau value at 1 and F(1,1)=0")
    f1m = side_limit(f, ONE, "left")
    if q.contains(f1m):
        # plateau approached at 1 but f(1) above it: F must vanish off (1,1)
        x2, x1 = _plateau_pair(f, f1m)
        return _plateau_at_one(f1m, x1, x2, f_eval(op, x2, ONE), top,
                               "F vanishes off (1,1)", None)
    return None


def _undecided(note) -> dict:
    """Unknown for every property but ``proper``."""
    return {p: Verdict.unknown("none", note=note) for p in PROPERTIES if p != "proper"}


def _plateau_at_one(w, x1, x2, probe, top, evidence, note):
    """Verdicts for a plateau value w at 1, which f takes at x1 != x2, from
    the probe F(x1,1) = F(x2,1): F sees its arguments only through f.  An
    exact 0 makes F vanish off (1,1), with `evidence` and `note` naming the
    shape; an exact positive value refutes conditional cancellation; an
    Approx decides nothing.  `top` is F(1,1)."""
    if isinstance(probe, Approx):
        return _undecided("degenerate shape undecided")
    if probe == 0:
        return _vanishing_verdicts(top, evidence, note)
    out = _undecided("degenerate shape; use the oracle")
    out["conditionally_cancellative"] = Verdict.no(
        (x1, x2, ONE),
        note=f"F({x1},1)=F({x2},1)={probe}>0 with f({x1})=f({x2})={w}")
    out["cancellative"] = Verdict.no((ONE, x1, x2), note="repeated f value")
    out["strictly_monotone_op"] = out["cancellative"]
    return out


def _vanishing_verdicts(top, evidence, note):
    """F is 0 everywhere except possibly at (1,1), where it is `top`."""
    half = Fraction(1, 2)
    out = {
        "t_subnorm": Verdict.yes(evidence, note=note),
        "t_norm": Verdict.no((half,), note="F(1/2,1)=0 != 1/2"),
        "conditionally_cancellative": Verdict.yes(evidence, note=note),
        "cancellative": Verdict.no((ONE, ZERO, half), note="F(1,0)=F(1,1/2)=0"),
        "strictly_monotone_op": Verdict.no((ONE, ZERO, half),
                                           note="F(1,0)=F(1,1/2)=0"),
        "archimedean": Verdict.yes(evidence),
    }
    if not isinstance(top, Approx) and top == 0:
        out["continuous"] = Verdict.yes("F identically 0")
    else:
        out["continuous"] = Verdict.no((ONE, ONE),
                                       note=f"isolated positive value {top} at (1,1)")
    return out


def _proper_verdict(op, top) -> Verdict:
    """Proper means F(1,1) = `top` < 1: the operation cannot have neutral
    element 1."""
    c, r = approx_diff(top, ZERO)
    shown = f"{float(c):.12f}" if r else f"{c}"
    if c + r < 1:
        return Verdict.yes(f"F(1,1)={shown} < 1")
    if not r:
        return Verdict.no((ONE, ONE), note="F(1,1)=1")
    if op.t.neutral_one and eval_fn(op.f, ONE) == 1:
        # T(1,1) = 1 exactly, so F(1,1) = finv(1) exactly, whatever T's radius
        exact = op.finv_at(ONE)
        if exact < 1:
            return Verdict.yes(f"F(1,1)={exact} < 1")
        return Verdict.no((ONE, ONE),
                          note="T has neutral element 1 and f(1)=1, "
                               "so F(1,1)=1 exactly")
    return Verdict.unknown("error radius overlaps 1",
                           note=f"F(1,1) approx {shown}")


# -- inclusion conditions ---------------------------------------------------


def check_inclusion_conditions(t: TNormDescriptor, d: Decomposition):
    """The two range-inclusion conditions driving conditional cancellation:

        (a) T(M\\C, M) subset of M union [0, f(0+)]
        (b) T(Q, M)   subset of [0, f(0+)]

    Returns their escape values (z_a, z_b): None where the inclusion
    holds, else the image value outside the target set that
    ``IntervalSet.is_subset_of`` reports; z_b is None when Q is empty.
    Both are decided exactly via interval images, so only for the exact
    t-norm families (``t_image`` raises ValueError for the others).
    """
    low = IntervalSet.single(Interval.closed(ZERO, d.f0plus))
    z_a = t_image(t, d.m_minus_c, d.m).is_subset_of(d.m.union(low))[1]
    z_b = None if d.q.is_empty else t_image(t, d.q, d.m).is_subset_of(low)[1]
    return z_a, z_b


# -- gap-hull condition -----------------------------------------------------


def check_prop_sufficient(t: TNormDescriptor, d: Decomposition) -> Verdict:
    """The hull condition: T(union of H_k, M\\{0}) must avoid M\\C.  For
    each high gap [b_k,d_k] (those above the plateau maximum), H_k is the
    open hull of the kept boundary value together with the part of T(M,M)
    in that gap."""
    mm = t_image(t, d.m, d.m)
    hull = IntervalSet.empty()
    for k in d.k1:
        b, dd, c = d.s[k]
        inside = mm.intersect(IntervalSet.single(Interval.closed(b, dd)))
        hull = hull.union(inside.union(IntervalSet.points([c])).o_hull())
    if hull.is_empty:
        return Verdict.yes("all gap hulls empty")
    m_nz = d.m.minus(IntervalSet.points([ZERO]))
    bad = t_image(t, hull, m_nz).intersect(d.m_minus_c)
    if bad.is_empty:
        return Verdict.yes("gap-hull image avoids M\\C")
    return Verdict.no((bad.first_member(),), note=f"gap-hull image meets M\\C in {bad}")


# -- witness-set refutation for the associativity condition ------------------


L_RESOLUTION = 32


def l_set_check(t: TNormDescriptor, d: Decomposition) -> Verdict:
    """Exact refutation attempt of the full associativity condition over a
    finite witness set of y values (gap endpoints, kept values, range part
    endpoints, and the range's points on the grid of step 1/L_RESOLUTION).

    For each witness y and each pair of high gaps, builds the preimage
    sets {x in M : T(x,y) lands in the gap} / {... lands in M\\C}, their
    hulls, and intersects the resulting images with M\\C.  A nonempty
    exact intersection refutes associativity; otherwise Unknown at this
    resolution.  Preimages exist for the strict exact families only
    (``t_preimage`` raises ValueError for the others).
    """
    ys = set()
    for b, dd, c in d.s:
        for v in (b, dd, c):
            if d.m.contains(v):
                ys.add(v)
    for p in d.m.parts:
        if p.lo_closed:
            ys.add(p.lo)
        if p.hi_closed:
            ys.add(p.hi)
    for i in range(L_RESOLUTION + 1):
        v = Fraction(i, L_RESOLUTION)
        if d.m.contains(v):
            ys.add(v)
    m_minus_c = d.m_minus_c
    for y in sorted(ys):
        if y == 0:
            continue
        m_y = IntervalSet.empty()
        for part in m_minus_c.parts:
            m_y = m_y.union(d.m.intersect(t_preimage(t, y, part)))
        gaps = {}
        for k in d.k1:
            b, dd, c = d.s[k]
            mk = d.m.intersect(t_preimage(t, y, Interval.closed(b, dd)))
            if not mk.is_empty:
                gaps[k] = mk
        for k, mk in gaps.items():
            c_k = d.s[k][2]
            i_k = t_image(t, mk, IntervalSet.points([y])).union(
                IntervalSet.points([c_k])).o_hull()
            if i_k.is_empty or m_y.is_empty:
                continue
            bad = t_image(t, i_k, m_y).intersect(m_minus_c)
            if not bad.is_empty:
                return Verdict.no((y, k, bad.first_member()),
                                  note="hull image at witness y meets M\\C")
        for k, mk in gaps.items():
            for l, ml in gaps.items():
                c_k, c_l = d.s[k][2], d.s[l][2]
                j = t_image(t, mk, IntervalSet.points([c_l])).union(
                    t_image(t, IntervalSet.points([c_k]), ml)).o_hull()
                bad = j.intersect(m_minus_c)
                if not bad.is_empty:
                    return Verdict.no((y, k, l, bad.first_member()),
                                      note="cross-gap hull meets M\\C")
    return Verdict.unknown(f"witness set at resolution {L_RESOLUTION} found no refutation")


# -- cancellation -----------------------------------------------------------


def check_cancellative(op: GeneratedOp, d: Decomposition) -> Verdict:
    """Cancellative t-subnorm test for an exact T: f strictly increasing
    and T(M,M) within M, both verified exactly."""
    f, t = op.f, op.t
    if not f.is_strictly_monotone:
        w = d.q.first_member()
        x1, x2 = _plateau_pair(f, w)
        return Verdict.no((ONE, x1, x2),
                          note=f"f({x1})=f({x2})={w}, so F(1,{x1})=F(1,{x2})")
    ok, z = t_image(t, d.m, d.m).is_subset_of(d.m)
    if ok:
        return Verdict.yes("f strictly increasing", "T(M,M) within M")
    # (x, y1, y2) with F(x,y1)=F(x,y2), y1 != y2, x != 0
    witness = next(((x, y1, y2) for x, y1, y2, _ in _gap_collisions(op, d, d.m, z)
                    if x != 0), None)
    if witness is not None:
        return Verdict.no(witness,
                          note=f"image value {z} in a range gap collapses "
                               "distinct arguments")
    return Verdict.unknown(
        "T(M,M) escapes M but no cancellation counterexample was "
        f"constructed (escape value {z})")


def _gap_collisions(op, d: Decomposition, domain: IntervalSet, z: Fraction):
    """Yield (x, y1, y2, a) with y1 != y2 and F(x,y1) = F(x,y2) = a exactly,
    built from a t-norm image value z that falls in a range gap: f(y1) and
    f(y2) are taken from `domain` and sent into that gap by T(., f(x)).

    Only the strict exact families reach here, where F is symmetric, so
    the same collisions serve with x as the first or the second argument.
    z lies outside the range M, so some gap holds it.
    """
    t = op.t
    b, dd, c = next(g for g in d.s if g[0] <= z <= g[1])
    for v in _PQ_VALUES:
        if not d.m.contains(v):
            continue
        pre = domain.intersect(t_preimage(t, v, Interval.closed(b, dd)))
        us = [u for u in _dense_samples(pre) if t_eval(t, u, v) != c][:6]
        if len(us) < 2:
            continue
        x = arg_with_value(op.f, v)
        if x is None:
            continue
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                y1 = arg_with_value(op.f, us[i])
                y2 = arg_with_value(op.f, us[j])
                if y1 is None or y2 is None or y1 == y2:
                    continue
                a = f_eval(op, x, y1)
                if a == f_eval(op, x, y2):
                    yield x, y1, y2, a


def _cc_witness(op, d: Decomposition, which: str, z: Fraction):
    """(x1, x2, y) violating the conditional cancellation law, i.e.
    F(x1,y)=F(x2,y)>0 with x1 != x2, from the escape value z of a failed
    inclusion condition: T(Q,M)'s for `which` "plateau", T(M\\C,M)'s for
    "gap"; verified by evaluation.  Only runs for the strict exact
    families, so every value is an exact Fraction."""
    t = op.t
    if which == "plateau":
        # z = T(w, v) > f(0+) with w a repeated value
        for w in (p.lo for p in d.q.parts):
            x1, x2 = _plateau_pair(op.f, w)
            for v in t_solve_x(t, w, z):
                if not d.m.contains(v):
                    continue
                y = arg_with_value(op.f, v)  # v is in the range M
                a1, a2 = f_eval(op, x1, y), f_eval(op, x2, y)
                if a1 == a2 and a1 > 0:
                    return (x1, x2, y)
        return None
    return next(((x1, x2, y) for y, x1, x2, a in _gap_collisions(op, d, d.m_minus_c, z)
                 if a > 0), None)


# -- continuity -------------------------------------------------------------


def _dir_limit(op: GeneratedOp, x0: Fraction, y0: Fraction, side: str, approach: dict):
    """Exact lim F(x, y0) as x -> x0 from `side`; None when not computable.
    `approach` maps (x0, side) to the segment of f approaching x0 from
    `side` and its value at x0, filled as asked: neither depends on y0."""
    t = op.t
    if (side == "left" and x0 == 0) or (side == "right" and x0 == 1):
        return None
    c = op.f_at(y0)
    if c == 0:
        return op.finv_at(ZERO)
    seg_v = approach.get((x0, side))
    if seg_v is None:
        # x0 is neither 0 from the left nor 1 from the right, so a segment
        # approaches it
        seg = approach_segment(op.f, x0, side)
        seg_v = approach[x0, side] = seg, seg.value_at(x0)
    seg, v = seg_v
    if seg.is_const:
        return op.finv_at(t_eval(t, v, c))
    w, const = t.dir_limit(v, side, c)
    if const:
        return op.finv_at(w)
    if side == "left":
        return side_limit(op.finv, w, "left")
    if w == 1:
        return op.finv_at(ONE)
    return side_limit(op.finv, w, "right")


def check_continuity(op: GeneratedOp) -> Verdict:
    """Continuity of F on [0,1]^2.

    For strictly increasing f with a strictly monotone continuous exact
    t-norm, F is continuous iff no window [T(f(x-),f(y-)), T(f(x+),f(y+))]
    meets Ran(f) in more than one point; the window only degenerates away
    from jumps of f, so a finite sweep over jump pairs and critical second
    arguments decides the property exactly.  Otherwise a search for
    exactly computed one-sided limit mismatches can refute continuity,
    and anything undecided stays Unknown.
    """
    f, t = op.f, op.t
    if t.lam is not None:  # the lambda construction
        segs = f.segments
        if (len(segs) == 1 and not segs[0].is_const
                and segs[0].slope == t.lam and segs[0].intercept == 0):
            return Verdict.yes(
                "scaled-generator composition equals the additively "
                "generated operation, which is continuous")
        return Verdict.unknown("non-canonical generator composition")

    jumps = f._jumps
    if (f.nondecreasing and f.is_strictly_monotone and not jumps
            and t.continuous):
        # finv is continuous on [0, f(1)] for continuous strictly
        # increasing f, so F inherits continuity from T
        return Verdict.yes("f continuous strictly increasing, T continuous")
    if f.nondecreasing and f.is_strictly_monotone and t.exact and t.strict:
        # strict implies continuous, so f has a jump here
        m = decompose(f).m
        # jump x jump windows
        for (x1, a1, b1) in jumps:
            for (x2, a2, b2) in jumps:
                win = Interval.closed(t_eval(t, a1, a2), t_eval(t, b1, b2))
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    return Verdict.no((x1, x2),
                                      note=f"range meets [{win}] in {hit}")
        # jump x continuity-point windows: critical second arguments
        for (x1, a1, b1) in jumps:
            crits = set()
            for part in m.parts:
                for e in (part.lo, part.hi):
                    for side_val in (a1, b1):
                        if side_val > 0:
                            crits.update(t_solve_x(t, side_val, e))
            vs = sorted(c for c in crits if 0 < c <= 1)
            samples = set(v for v in vs if m.contains(v))
            for i in range(len(vs) - 1):
                mid = m.intersect(IntervalSet.single(
                    Interval.make(vs[i], vs[i + 1], False, False)))
                if not mid.is_empty:
                    samples.add(mid.parts[0].midpoint()
                                if not mid.parts[0].is_point else mid.parts[0].lo)
            for part in m.parts:
                samples.update(x for x in (part.lo, part.hi, part.midpoint())
                               if m.contains(x) and x > 0)
            for v in sorted(samples):
                win = Interval.closed(t_eval(t, a1, v), t_eval(t, b1, v))
                hit = m.intersect(IntervalSet.single(win))
                if hit.has_multiple_points():
                    y0 = arg_with_value(f, v)
                    return Verdict.no((x1, y0),
                                      note=f"range meets [{win}] in {hit}")
        return Verdict.yes("all discontinuity windows meet the range in "
                           "at most one point")

    if not t.exact:  # a generator family: lambda returned above
        return Verdict.unknown("inexact t-norm with a discontinuous or "
                               "non-injective generator function")

    if f.nondecreasing:
        v = _limit_search(op)
        if v is not None:
            return v
    return Verdict.unknown("no exact limit mismatch found; criterion "
                           "preconditions unmet")


def _limit_search(op: GeneratedOp):
    """``check_continuity``'s refutation search for non-decreasing f and an
    exact T: the first pair (px, py) at which a one-sided limit along the
    first argument differs from F(px, py), as a No, else None.

    The limit and F(px, py) depend on py only through f(py), so a pair whose
    (px, f(py)) was checked before is skipped: it would give the values of
    that earlier pair, which matched, so the first mismatch is unchanged."""
    f, t = op.f, op.t
    cands_x = set(f.breakpoints())
    ys = sorted(set(f.breakpoints()) | {ONE})
    for q in (p.lo for p in decompose(f).q.parts):
        for y0 in ys:
            for u in t_solve_x(t, op.f_at(y0), q):
                xa = arg_with_value(f, u)
                if xa is not None:
                    cands_x.add(xa)
    approach = {}
    seen = set()  # (px, reduced pair of f(py)) of the pairs checked
    for x0 in sorted(cands_x):
        for y0 in ys:
            for (px, py) in ((x0, y0), (y0, x0)):
                key = px, op.f_pair((py.numerator, py.denominator))
                if key in seen:
                    continue
                seen.add(key)
                val = f_eval(op, px, py)
                for side in ("left", "right"):
                    lim = _dir_limit(op, px, py, side, approach)
                    if lim is not None and lim != val:
                        return Verdict.no(
                            (px, py),
                            note=f"{side} limit {lim} != value {val} "
                                 f"along the first argument")
    return None


# -- Archimedean ------------------------------------------------------------


# Self-composition steps check_archimedean tries per grid point.
ARCH_CAP = 256


def check_archimedean(op: GeneratedOp, grid_n: int = 20) -> Verdict:
    """Grid-and-cap Archimedean check: every interior grid x must have a
    self-composition power dropping below every interior grid y.  An
    exactly stabilized power sequence above some y is a rigorous No;
    hitting the cap without stabilizing leaves Unknown.

    One power sequence runs per f-value class, for the first grid point of
    the class.  Step k computes nxt = F(acc, x) = finv(T(f(acc), f(x))),
    with acc = x at step 1 and acc the previous nxt after it.  So nxt at
    step 1 is F(x, x), which depends on x only through f(x), and by
    induction so does every later nxt, its radius, and the tests at each
    step: the descent below y_min, the stall test and, from step 2 on,
    the fixed-point test nxt == acc.  Only step 1's fixed-point test reads
    x itself.  Let x be the first grid point of its class, whose powers
    descend, and x' a later point with f(x') = f(x); then x' descends
    too.  Its sequence is x's, so x' could only differ by stopping at step
    1 with F(x', x') = x'.  Then x's step 1 gives nxt = F(x, x) = x',
    exact, and not below y_min, as x' is a grid point; x's step 2 gives
    F(x', x) = F(x', x') = x' = acc, a fixed point, and x would have
    stopped with No (ARCH_CAP >= 2), not descended.  A point whose
    sequence does not descend ends the scan, so every other point of the
    class comes after that verdict, and the verdict is the one a scan of
    every grid point returns.

    Both kinds of family run the sequence on the op's integer pairs, with
    a Fraction built only for the Verdict: an exact family in
    ``_exact_powers``, one ``GeneratedOp.power_step`` per step, and a
    generator family in ``_approx_powers``, one ``GeneratedOp.approx_step``
    per step, which carries T's error radius as a pair and reads g(f(x))
    from the op's ``_g_cache``.
    """
    if grid_n < 2:
        raise ValueError(
            f"grid_n must be >= 2 for an interior grid point, got {grid_n}")
    ys = [Fraction(i, grid_n) for i in range(1, grid_n)]
    y_min = ys[0]
    descended = set()  # the f values, as reduced pairs, of the classes done
    for x in ys:
        cls = op.f_pair((x.numerator, x.denominator))
        if cls in descended:
            continue
        stop = (_exact_powers if op.t.exact else _approx_powers)(op, x, cls, grid_n)
        if stop is not None:
            return stop
        descended.add(cls)
    return Verdict.yes(f"all grid powers descend below {y_min}",
                       note=f"grid n={grid_n}, cap {ARCH_CAP}")


def _approx_powers(op: GeneratedOp, x: Fraction, fx: tuple, grid_n: int):
    """The Verdict that ends ``check_archimedean``'s scan at x, or None when
    the powers of x descend below 1/grid_n, for an inexact family; fx is
    f(x) as a reduced pair.  Each step, ``op.approx_step``, gives F(acc, x)
    as its centre c, a reduced pair, and its radius s, a pair that is 0
    only where T's value is exact.  The descent c + s < 1/grid_n and the
    stall |c - prev| <= s are cross-multiplied; only an exact step can be
    the exact fixed point, a centre pair equal to acc's."""
    p, q = x.numerator, x.denominator
    pn = pd = None  # the last inexact centre
    for _ in range(ARCH_CAP):
        cn, cd, sn, sd = op.approx_step((p, q), fx)
        if (cn * sd + sn * cd) * grid_n < cd * sd:
            return None
        if sn:
            # an approximate power can be seen to stall, never to be
            # an exact fixed point
            if pn is not None and abs(cn * pd - pn * cd) * sd <= sn * cd * pd:
                return Verdict.unknown(
                    f"power sequence at x={x} stalls within the error radius")
            pn, pd = cn, cd
        elif cn == p and cd == q:
            # exact fixed point at acc >= 1/grid_n: powers never descend below it
            return Verdict.no((x, Fraction(1, grid_n)),
                              note=f"powers of {x} stabilize at {Fraction(p, q)}")
        p, q = cn, cd
    return Verdict.unknown(f"powers of {x} did not descend below {Fraction(1, grid_n)} "
                           f"within {ARCH_CAP} steps")


def _exact_powers(op: GeneratedOp, x: Fraction, fx: tuple, grid_n: int):
    """The Verdict that ends ``check_archimedean``'s scan at x, or None when
    the powers of x descend below 1/grid_n, for an exact family; fx is f(x)
    as a reduced pair.  Each step, ``op.power_step``, gives F(acc, x) as a
    reduced pair, so a pair equal to acc's is the exact fixed point."""
    p, q = x.numerator, x.denominator
    for _ in range(ARCH_CAP):
        n, d = op.power_step((p, q), fx)
        if n * grid_n < d:
            return None
        if n == p and d == q:
            return Verdict.no((x, Fraction(1, grid_n)),
                              note=f"powers of {x} stabilize at {Fraction(n, d)}")
        p, q = n, d
    return Verdict.unknown(f"powers of {x} did not descend below {Fraction(1, grid_n)} "
                           f"within {ARCH_CAP} steps")


# -- orchestration ----------------------------------------------------------


def _assoc_search(op: GeneratedOp, pts):
    """The first (x, y, z) of pts^3, in lexicographic order, with
    F(F(x,y),z) != F(x,F(y,z)); None when there is none.

    Runs the oracle's associativity scan, which evaluates F once per pair
    of f values on interned value tables.  It is only called on the strict
    exact path, where every value is an exact Fraction: the scan visits
    the triples in the same order and, on an exact table, unequal value
    ids are unequal values, so its first counterexample is the first
    triple a direct scan would find.
    """
    from .oracle import check_property

    res = check_property(op, "associativity", pts)
    return None if res.ok else res.counterexample.inputs


def _neutral_search(op: GeneratedOp, pts):
    """The first x of pts with F(x,1) != x beyond the error radius, and
    F(x,1); None when there is none."""
    for x in pts:
        v = f_eval(op, x, ONE)
        d, r = approx_diff(v, x)
        if abs(d) > r:
            return x, v
    return None


# The properties that the cancellation routes decide.
_ROUTED = ("t_subnorm", "conditionally_cancellative", "cancellative",
           "strictly_monotone_op")


def classify(f: PiecewiseMonotoneFn, t: TNormDescriptor,
             arch_grid_n: int = 20) -> ClassificationReport:
    """Full property report for F(x,y) = finv(T(f(x),f(y))).

    This is where the routes are chosen: the inclusion conditions run for
    the exact families, the strict exact route for product and hamacher2,
    and a corollary route for the other strict families.
    """
    if arch_grid_n < 2:
        raise ValueError(
            f"arch_grid_n must be >= 2 for an interior grid point, got {arch_grid_n}")
    op = make_op(f, t)
    top = f_eval(op, ONE, ONE)
    log = []
    props = check_degenerate(op, top)
    d = decompose(f) if f.nondecreasing else None
    if props is not None:
        log.append(("degenerate shape", "", "forced classification"))
    else:
        props = {"archimedean": check_archimedean(op, grid_n=arch_grid_n),
                 "continuous": check_continuity(op)}
        if props["continuous"].status == "yes":
            log.append(("continuity",
                        "Archimedean and conditional cancellation coincide for "
                        "continuous t-subnorms", "cross-check available"))
        if t.exact:
            z_a, z_b = check_inclusion_conditions(t, d)
            log.append(("T(M\\C,M) within M plus [0,f(0+)]",
                        f"M={d.m} C={d.c_set} f(0+)={d.f0plus}",
                        "yes" if z_a is None else "no"))
            log.append(("T(Q,M) within [0,f(0+)]", f"Q={d.q}",
                        "yes" if z_b is None else "no"))
        if t.exact and t.strict:
            props.update(_strict_exact_verdicts(op, d, z_a, z_b, log))
        elif t.strict and f.is_strictly_monotone and not f._jumps \
                and eval_fn(f, ZERO) == 0:
            # corollary route for strict but inexact families
            props.update(dict.fromkeys(_ROUTED, Verdict.yes(
                "f continuous strictly increasing with f(0)=0",
                "T strictly monotone and continuous")))
        else:
            props.update(dict.fromkeys(_ROUTED, Verdict.unknown(
                "preconditions unmet: t-norm not strictly monotone and "
                "continuous with exact evaluation; run the oracle")))
        props["t_norm"] = _t_norm_verdict(op, props)
    props["proper"] = _proper_verdict(op, top)
    return ClassificationReport({p: props[p] for p in PROPERTIES}, d, log, op)


def _strict_exact_verdicts(op, d: Decomposition, z_a, z_b, log) -> dict:
    """The properties in ``_ROUTED`` for product and hamacher2, from the
    escape values z_a and z_b of the two inclusion conditions (None where
    one holds); appends the conditions it checks to `log`."""
    f, t = op.f, op.t
    if z_a is None and z_b is None:
        cc = Verdict.yes("T(M\\C,M) within M plus [0,f(0+)]", "T(Q,M) within [0,f(0+)]")
    else:
        z, which = (z_b, "plateau") if z_b is not None else (z_a, "gap")
        triple = _cc_witness(op, d, which, z)
        if triple is not None:
            x1, x2, y = triple
            cc = Verdict.no(triple, note=f"F({x1},{y})=F({x2},{y})>0")
        else:
            cc = Verdict.unknown(f"inclusion fails at {z} but no argument-space "
                                 "witness was constructed")

    canc = check_cancellative(op, d)
    hk = check_prop_sufficient(t, d)
    log.append(("gap-hull condition", f"K1={d.k1}", hk.status))
    if canc.status == "yes":
        ts = Verdict.yes("cancellative route")
    elif cc.status == "yes" and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", "both inclusion conditions")
    elif cc.status != "yes" and f.is_strictly_monotone and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", note="f strictly increasing")
    else:
        pts = sorted(set(f.breakpoints()) | {Fraction(i, 6) for i in range(7)})
        triple = _assoc_search(op, pts)
        if triple is not None:
            ts = Verdict.no(triple, note="associativity fails")
        elif cc.status != "yes":
            ts = Verdict.unknown("no sufficient route applies; run the oracle")
        elif eval_fn(f, ONE) == 1:
            ts = Verdict.unknown(
                "gap-hull condition refuted (necessary when f(1)=1) but no "
                "associativity counterexample found on the search grid",
                note=f"condition witness {hk.witness}")
        else:
            # the gap-hull condition fails (hk is No); the witness set
            # may refute associativity, but the grid above found no triple
            ts = l_set_check(t, d)
            log.append(("witness-set refutation", "", ts.status))
            if ts.status == "no":
                ts = Verdict.unknown(
                    "refutation found in the witness set but no "
                    "associativity counterexample on the search grid",
                    note=f"witness {ts.witness}")
    return {"conditionally_cancellative": cc, "cancellative": canc,
            "strictly_monotone_op": canc, "t_subnorm": ts}


def _t_norm_verdict(op, props) -> Verdict:
    f, t = op.f, op.t
    pts = sorted({Fraction(i, 8) for i in range(9)} | set(f.breakpoints()))
    bad = _neutral_search(op, pts)
    if bad is not None:
        x, v = bad
        c, _ = approx_diff(v, ZERO)
        return Verdict.no((x, ONE), note=f"F({x},1)={c} != {x}")
    ts = props["t_subnorm"]
    if ts.status == "no":
        return Verdict.no(ts.witness, note="not a t-subnorm")
    if (ts.status == "yes" and f.is_strictly_monotone
            and eval_fn(f, ONE) == 1 and t.neutral_one):
        return Verdict.yes("t-subnorm with neutral element 1",
                           note="f strictly increasing onto 1")
    return Verdict.unknown("neutral element holds on the grid but no "
                           "theorem route confirms it")


# -- rendering --------------------------------------------------------------


_STATUS_TEXT = {"yes": "Yes", "no": "No", "unknown": "Unknown"}


def decomposition_fields(d: Decomposition) -> list:
    """The decomposition as (key, value) pairs, in display order."""
    return [
        ("M", str(d.m)),
        ("S", " ".join(f"[{b},{dd}]:c={c}" for b, dd, c in d.s)),
        ("C", str(d.c_set)),
        ("Q", str(d.q)),
        ("f0plus", str(d.f0plus)),
        ("f1minus", str(d.f1minus)),
        ("tau", str(d.tau)),
        ("upsilon", str(d.upsilon)),
        ("K1", "{" + ",".join(str(k) for k in d.k1) + "}" if d.k1 else "∅"),
    ]


def render_text(report: ClassificationReport) -> str:
    lines = []
    for name in PROPERTIES:
        v = report.properties[name]
        line = f"{name}: {_STATUS_TEXT[v.status]}"
        if v.status == "yes" and v.evidence:
            line += " (" + "; ".join(v.evidence) + ")"
        if v.status == "no" and v.witness is not None:
            line += " witness=" + ",".join(str(w) for w in v.witness)
        if v.status == "unknown" and v.resolution:
            line += " (" + v.resolution + ")"
        if v.note:
            line += f"  # {v.note}"
        lines.append(line)
    if report.decomposition is not None:
        lines.extend(f"{k}={v}" for k, v in decomposition_fields(report.decomposition))
    for name, values, outcome in report.conditions_log:
        lines.append(f"condition: {name} [{values}] -> {outcome}")
    return "\n".join(lines) + "\n"


def render_structured(report: ClassificationReport) -> str:
    lines = []
    for name in PROPERTIES:
        v = report.properties[name]
        lines.append(f"{name}.status={v.status}")
        if v.evidence:
            lines.append(f"{name}.evidence=" + "; ".join(v.evidence))
        if v.witness is not None:
            lines.append(f"{name}.witness=" +
                         ",".join(str(w) for w in v.witness))
        if v.resolution:
            lines.append(f"{name}.resolution={v.resolution}")
    if report.decomposition is not None:
        lines.extend(f"decomposition.{k.lower()}={v}"
                     for k, v in decomposition_fields(report.decomposition))
    return "\n".join(lines) + "\n"
