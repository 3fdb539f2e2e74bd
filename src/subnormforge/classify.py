"""Three-valued classification of the generated operation F.

Each property gets a Verdict: Yes with a list of exactly verified
conditions, No with a witness that re-checks by direct evaluation, or
Unknown with the resolution reached.  Yes verdicts are only emitted on
routes where the characterization theorems apply (strictly monotone,
continuous t-norms with exact rational evaluation, plus a corollary route
for continuous strictly increasing f with f(0)=0, and the Archimedean
rules proved in ``check_archimedean``); everything else falls back to
Unknown and the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .generated import GeneratedOp, f_eval, make_op
from .intervals import Interval, IntervalSet, ONE, ZERO, reduced, sorted_pairs
from .pwfn import (
    Decomposition,
    PiecewiseMonotoneFn,
    _first_arg,
    approach_segment,
    decompose,
    eval_fn,
    eval_pair,
    first_arg_above,
    limit_pair,
    plateau_set,
    side_limit,
)
from .tnorms import (Approx, TNormDescriptor, approx_diff, t_eval, t_image, t_solve_pairs,
                     t_solve_x, t_preimage)

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
# order, each with its pair: the witness builders' deterministic search order.
_PQ_VALUES = tuple((v, v.numerator, v.denominator) for v in dict.fromkeys(
    Fraction(p, q) for q in range(1, 33) for p in range(1, q + 1)))


def arg_with_value(f: PiecewiseMonotoneFn, v: Fraction, avoid=None):
    """Some x with f(x)=v, optionally distinct from `avoid`; None if v is
    not attained (or only attained at `avoid`): ``arg_pair`` built as a
    Fraction."""
    k = arg_pair(f, v.numerator, v.denominator,
                 None if avoid is None else (avoid.numerator, avoid.denominator))
    return None if k is None else Fraction(*k)


def arg_pair(f: PiecewiseMonotoneFn, vn: int, vd: int, avoid=None):
    """``arg_with_value`` on pairs, v = vn/vd with vd > 0 and `avoid` a pair
    or None: on the first piece whose values hold v (``contains_pair``),
    the first of its closed lower end, its midpoint and its closed upper
    end for a constant piece, or x = (v - c)/s on a line."""

    def allowed(n, d):  # n/d != avoid
        return avoid is None or n * avoid[1] != avoid[0] * d

    for p, vals in zip(f.segments, f._values):
        if not vals.contains_pair(vn, vd):
            continue
        if not p.sn:
            d = p.domain
            if d.lo_closed and allowed(d.ln, d.ld):
                return d.ln, d.ld
            mid = reduced(d.ln * d.hd + d.hn * d.ld, 2 * d.ld * d.hd)
            if allowed(*mid):
                return mid
            if d.hi_closed and allowed(d.hn, d.hd):
                return d.hn, d.hd
        else:
            n, d = (vn * p.cd - p.cn * vd) * p.sd, vd * p.cd * p.sn
            if allowed(n, d):
                return reduced(n, d)
    return None


# Interior probes per part in _dense_samples.
DENSE_PROBES = 4


def _dense_samples(s: IntervalSet) -> list:
    """Several interior points per part (plus closed endpoints), so that
    even a single open interval contributes multiple probes: reduced pairs,
    sorted by integer keys over the lcm of their denominators."""
    out = set()
    k = DENSE_PROBES + 1
    for p in s.parts:
        if p.lo_closed:
            out.add((p.ln, p.ld))
        if p.hi_closed:
            out.add((p.hn, p.hd))
        w = p.hn * p.ld - p.ln * p.hd  # (hi - lo) * ld * hd
        if w > 0:
            # lo + (hi - lo) * j/k = (k * ln * hd + j * w) / (k * ld * hd)
            base, den = k * p.ln * p.hd, k * p.ld * p.hd
            for j in range(1, k):
                out.add(reduced(base + j * w, den))
    return sorted_pairs(out)


def _plateau_pair(f: PiecewiseMonotoneFn, k: tuple):
    """(x1, x2) with x1 != x2 and f(x1) = f(x2) = w, for a value w in
    plateau_set(f) given as an integer pair k, found once per function and
    value (``f._plateau_pairs``, keyed by w's reduced pair).  When the only
    piece taking w is a constant piece open at both ends, arg_with_value
    finds its midpoint x1 alone; then x2 is halfway between x1 and the
    piece's lower end."""
    k = reduced(*k)
    pair = f._plateau_pairs.get(k)
    if pair is None:
        w = Fraction(*k)
        x1 = arg_with_value(f, w)
        x2 = arg_with_value(f, w, avoid=x1)
        if x2 is None:
            x2 = (x1 + approach_segment(f, x1, "left").domain.lo) / 2
        pair = f._plateau_pairs[k] = x1, x2
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
    or None when none of these shapes apply.  f(1) and the limits of f are
    read as integer pairs.
    """
    f = op.f
    if not f.nondecreasing:
        # f is non-increasing with values in [0,1], so it vanishes on
        # (0,1] exactly when its limit at 0 from the right is 0
        if limit_pair(f, 0, 1, "right")[0][0] == 0:
            return _vanishing_verdicts(top, "F identically 0", "f vanishes on (0,1]")
        return _undecided("non-increasing f outside the vanishing case; use the oracle")

    q = plateau_set(f)
    f1 = eval_pair(f, 1, 1)
    if q.contains_pair(*f1):
        x1, x2 = _plateau_pair(f, f1)
        return _plateau_at_one(f1, x1, x2, top, top,
                               "F identically 0", "plateau value at 1 and F(1,1)=0")
    f1m = limit_pair(f, 1, 1, "left")[0]
    if q.contains_pair(*f1m):
        # plateau approached at 1 but f(1) above it: F must vanish off (1,1)
        x2, x1 = _plateau_pair(f, f1m)
        return _plateau_at_one(f1m, x1, x2, f_eval(op, x2, ONE), top,
                               "F vanishes off (1,1)", None)
    return None


# _undecided's verdicts per note, built once: a Verdict is frozen, so units share them
_UNDECIDED = {}


def _undecided(note) -> dict:
    """Unknown for every property but ``proper``, as a dict the caller may edit."""
    out = _UNDECIDED.get(note)
    if out is None:
        out = _UNDECIDED[note] = {p: Verdict.unknown("none", note=note)
                                  for p in PROPERTIES if p != "proper"}
    return dict(out)


def _plateau_at_one(w, x1, x2, probe, top, evidence, note):
    """Verdicts for a plateau value w at 1, an integer pair, which f takes
    at x1 != x2, from the probe F(x1,1) = F(x2,1): F sees its arguments
    only through f.  An exact 0 makes F vanish off (1,1), with `evidence`
    and `note` naming the shape; an exact positive value refutes
    conditional cancellation; an Approx decides nothing.  `top` is F(1,1)."""
    if isinstance(probe, Approx):
        return _undecided("degenerate shape undecided")
    if probe == 0:
        return _vanishing_verdicts(top, evidence, note)
    out = _undecided("degenerate shape; use the oracle")
    out["conditionally_cancellative"] = Verdict.no(
        (x1, x2, ONE),
        note=f"F({x1},1)=F({x2},1)={probe}>0 with f({x1})=f({x2})={Fraction(*w)}")
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
    element 1.  An Approx `top` has a positive radius; an exact one, a
    Fraction, is below 1 when its numerator is below its denominator; each
    comparison is a sign test on numerators and denominators."""
    if not isinstance(top, Approx):
        if top.numerator < top.denominator:
            return Verdict.yes(f"F(1,1)={top} < 1")
        return Verdict.no((ONE, ONE), note="F(1,1)=1")
    c, r = top.value, top.radius
    shown = f"{float(c):.12f}"
    if c.numerator * r.denominator + r.numerator * c.denominator < c.denominator * r.denominator:
        return Verdict.yes(f"F(1,1)={shown} < 1")
    if op.t.neutral_one and op.f_pair((1, 1)) == (1, 1):
        # T(1,1) = 1 exactly, so F(1,1) = finv(1) exactly, whatever T's radius
        n, d = op._finv_entry((1, 1))[0]
        if n < d:
            return Verdict.yes(f"F(1,1)={Fraction(n, d)} < 1")
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


def check_prop_sufficient(t: TNormDescriptor, d: Decomposition, mm: IntervalSet) -> Verdict:
    """The hull condition: T(union of H_k, M\\{0}) must avoid M\\C.  For
    each high gap [b_k,d_k] (those above the plateau maximum), H_k is the
    open hull of the kept boundary value together with the part of
    mm = T(M,M) in that gap."""
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


def check_cancellative(op: GeneratedOp, d: Decomposition, mm: IntervalSet) -> Verdict:
    """Cancellative t-subnorm test for an exact T: f strictly increasing
    and mm = T(M,M) within M, both verified exactly."""
    f, t = op.f, op.t
    if not f.is_strictly_monotone:
        w = d.q.first_member()
        x1, x2 = _plateau_pair(f, (w.numerator, w.denominator))
        return Verdict.no((ONE, x1, x2),
                          note=f"f({x1})=f({x2})={w}, so F(1,{x1})=F(1,{x2})")
    ok, z = mm.is_subset_of(d.m)
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
    z lies outside the range M, so some gap holds it.  The values v = f(x)
    and samples u = f(y) are pairs, T read by ``eval_pair``; each u gets
    its y and F(x, y) = finv(T(v, u)) once, when a pair first needs them.
    Distinct samples give distinct y."""
    t, f = op.t, op.f
    zn, zd = z.numerator, z.denominator
    b, dd, c = next(g for g in d.s
                    if g[0].numerator * zd <= zn * g[0].denominator
                    and zn * g[1].denominator <= g[1].numerator * zd)
    cn, cd = c.numerator, c.denominator
    gap = Interval.closed(b, dd)
    for v, vn, vd in _PQ_VALUES:
        if not d.m.contains_pair(vn, vd):
            continue
        us = [u for u in _dense_samples(domain.intersect(t_preimage(t, v, gap)))
              if (w := t.eval_pair(*u, vn, vd))[0] * cd != cn * w[1]][:6]
        if len(us) < 2:
            continue
        x = arg_with_value(f, v)
        if x is None:
            continue
        ys, fs = [], [None] * len(us)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                while len(ys) <= j:
                    ys.append(arg_pair(f, *us[len(ys)]))
                if ys[i] is None or ys[j] is None:
                    continue
                for k in (i, j):
                    if fs[k] is None:
                        fs[k] = op.t_finv(vn, vd, *us[k])[0]
                if fs[i] == fs[j]:
                    yield x, Fraction(*ys[i]), Fraction(*ys[j]), Fraction(*fs[i])


def _cc_witness(op, d: Decomposition, which: str, z: Fraction):
    """(x1, x2, y) violating the conditional cancellation law, i.e.
    F(x1,y)=F(x2,y)>0 with x1 != x2, from the escape value z of a failed
    inclusion condition: T(Q,M)'s for `which` "plateau", T(M\\C,M)'s for
    "gap"; verified by evaluation.  Only runs for the strict exact
    families, so every value is an exact Fraction."""
    t = op.t
    if which == "plateau":
        # z = T(w, v) > f(0+) with w = p.ln/p.ld a repeated value
        for p in d.q.parts:
            x1, x2 = _plateau_pair(op.f, (p.ln, p.ld))
            for v in t_solve_pairs(t, p.ln, p.ld, z.numerator, z.denominator):
                if not d.m.contains_pair(*v):
                    continue
                y = Fraction(*arg_pair(op.f, *v))  # v is in the range M
                a1, a2 = f_eval(op, x1, y), f_eval(op, x2, y)
                if a1 == a2 and a1 > 0:
                    return (x1, x2, y)
        return None
    return next(((x1, x2, y) for y, x1, x2, a in _gap_collisions(op, d, d.m_minus_c, z)
                 if a > 0), None)


# -- continuity -------------------------------------------------------------


def _dir_limit(op: GeneratedOp, x0: tuple, c: tuple, side: str, approach: dict):
    """Exact lim F(x, y0) as x -> x0 from `side`, for f(y0) = c, with x0 and
    c reduced pairs and the limit an integer pair; None when not computable.
    `approach` maps (x0, side) to ``limit_pair(f, x0, side)``, filled as
    asked: it does not depend on c.

    Where neither f nor T(., c) is constant on that side, T(f(x), c)
    approaches its limit w strictly from `side`, so F's limit is finv's
    limit at w from that side.  From the right w < 1, so finv's convention
    at 1 never enters: the line of f beside x0 rises above v = f(x0+) and
    stays at most 1, and w, a limit of T(u, c) <= u as u falls to v, is at
    most v < 1."""
    if x0[0] == (0 if side == "left" else x0[1]):
        return None
    if c[0] == 0:
        return op._finv_entry((0, 1))[0]
    v_const = approach.get((x0, side))
    if v_const is None:
        v_const = approach[x0, side] = limit_pair(op.f, *x0, side)
    v, const = v_const
    if const:
        return op.t_finv(*v, *c)[0]
    (n, d), const = op.t.dir_limit(v, side, c)
    if const:
        return op._finv_entry(reduced(n, d))[0]
    return limit_pair(op.finv, n, d, side)[0]


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

    The search runs on reduced integer pairs: f and F through the op's
    caches (``f_pair``, ``t_finv``), the one-sided limits of f and finv by
    ``limit_pair`` and those of T by the family's ``dir_limit``; only a No
    builds Fractions, for its witness and note.  The limit and F(px, py)
    depend on py only through f(py), so a pair whose (px, f(py)) was
    checked before is skipped: it would give the values of that earlier
    pair, which matched, so the first mismatch is unchanged.  The candidate
    arguments are f's breakpoints, 1 among them, and, first arguments only,
    an x with f(x) = u for each solution u of T(u, f(y0)) = q, q a plateau
    value; each distinct (q, f(y0)) is solved once and each u looked up
    once."""
    f, t = op.f, op.t
    ys = [(n, d) for _, n, d in f._breakpoints]
    cs = {op.f_pair(k) for k in ys}
    xs = set(ys)
    for u in {u for q in decompose(f).q.parts for c in cs
              for u in t_solve_pairs(t, *c, q.ln, q.ld)}:
        xa = arg_pair(f, *u)
        if xa is not None:
            xs.add(xa)
    approach = {}
    seen = set()  # (px, f(py)) of the pairs checked, as reduced pairs
    for x0 in sorted_pairs(xs):
        for y0 in ys:
            for kx, ky in ((x0, y0), (y0, x0)):
                c = op.f_pair(ky)
                key = kx, c
                if key in seen:
                    continue
                seen.add(key)
                vn, vd = op.t_finv(*op.f_pair(kx), *c)[0]
                for side in ("left", "right"):
                    lim = _dir_limit(op, kx, c, side, approach)
                    if lim is not None and lim[0] * vd != vn * lim[1]:
                        return Verdict.no(
                            (Fraction(*kx), Fraction(*ky)),
                            note=f"{side} limit {Fraction(*lim)} != value "
                                 f"{Fraction(vn, vd)} along the first argument")
    return None


# -- Archimedean ------------------------------------------------------------


# A No witness (x, y) must show the powers of x reaching an exact fixed
# point, none of them below y, within this many steps.
ARCH_WITNESS_STEPS = 1024


def check_archimedean(op: GeneratedOp) -> Verdict:
    """The Archimedean property: the powers x, F(x,x), F(F(x,x),x), ...
    of every x in (0,1) fall below every y in (0,1).  Decided by rules on
    f's jumps, for non-decreasing f outside ``check_degenerate``'s shapes,
    without running the powers.

    Write f(p-) for the left limit at p, f(1-) for the one at 1, and
    a0 = inf{x : f(x) > 0}.  Outside the degenerate shapes f(1-) is not a
    plateau value, so f(x) < f(1-) <= 1 for every x < 1.  F(a, x) =
    finv(T(f(a), f(x))) is non-decreasing in a, and at most
    finv(f(a)) <= a, so the powers of x fall.

    - Rule J, a jump that traps: a p in (0,1) with f(p) > f(p-) and
      lim T(f(p), v) > f(p-) as v rises to f(1-).  Then some x in [p,1)
      has f(x) close enough to f(1-) that v = T(f(p), f(x)) lies in
      (f(p-), f(p)], so F(p, x) = p; every power of x then stays at or
      above F(p, x) = p.  No, with the witness (x, p) for the x of
      ``_trap_witness``, re-checked here; on a generator family, whose F
      is not exact, Unknown.
    - Rule M, an idempotent point: a p in (0,1) with F(p, p) = p, whose
      powers stay at p.  For min this is every p of a rising line with
      f(p) > 0, and one always exists outside the degenerate shapes.  It
      runs for the exact families that do not shrink (below).  No.
    - Rule Z, a zero plateau: a0 > 0 and f(a0+) = 0.  Then f(x) > 0 for
      some x < 1, T has no zero divisors, and every power of x has a
      positive f value, so it lies above a0.  An exact fixed point does
      not certify it, so Unknown.
    - Otherwise Yes, when T shrinks (``TNormDescriptor.shrinks``): T(u, .)
      is strictly increasing for u > 0, T(u, c) <= u, and lim sup T(u, c)
      < v as u falls to v, for v > 0 and c < 1.
      Proof.  Let x in (0,1), c = f(x) < 1, and let the powers a_n fall to
      L > 0; c > 0, as c = 0 makes F(x, x) = finv(0) = 0.  If a_n = L
      from some n on, F(L, x) = L: then w = T(f(L), c) has finv(w) = L,
      so f(L) > 0 (else w = 0), w < f(L), and f(t) < w for every t < L,
      so f(L-) <= w < f(L): L is a jump in (0,1) with x in [L,1), and
      T(f(L), f(x)) >= f(L-) with f(x) < f(1-) puts rule J's limit above
      f(L-), as a shrinking T(f(L), .) is strictly increasing.
      Otherwise a_n > L for every n, so finv(T(f(a_n), c)) > L and
      f(L+) <= T(f(a_n), c), while f(a_n) falls to f(L+); then f(L+) > 0
      contradicts the lim sup, and f(L+) = 0 with every f(a_n) > 0 (else
      the next power is 0) makes L = a0 and f(a0+) = 0, rule Z.  So when
      no rule applies, L = 0 for every x.

    Any other family gets Unknown.  Rule J compares T exactly, through
    the family's ``left_limit_above``.
    """
    f, t = op.f, op.t
    if not f.nondecreasing:
        return Verdict.unknown("the rules cover non-decreasing f")
    d = decompose(f)
    if d.q.contains(d.f1minus):
        return Verdict.unknown("f(1-) is a plateau value: a degenerate shape")
    if not t.shrinks:
        p = _idempotent_point(op) if t.exact else None
        if p is None:
            return Verdict.unknown("T does not shrink and no exact idempotent "
                                   "point was found")
        return Verdict.no((p, p), note=f"F({p},{p})={p}, so the powers of {p} stay at {p}")
    # (p, f(p), f(p-)) at each trapping jump in (0,1); T <= min keeps the
    # limit at or below f(p), so only a jump with f(p) > f(p-) passes
    traps = [(p, op.f_at(p), fpm) for p, fpm, _ in f._jumps
             if 0 < p < 1 and t.left_limit_above(op.f_at(p), d.f1minus, fpm)]
    if traps:
        if not t.exact:
            return Verdict.unknown(
                f"the jump at {traps[0][0]} traps the powers, but an inexact F "
                "cannot show their fixed point")
        found = _trap_witness(op, traps)
        if found is None:
            return Verdict.unknown(
                f"the jump at {traps[0][0]} traps the powers, but no witness "
                f"stabilizes within {ARCH_WITNESS_STEPS} steps")
        x, p, v = found
        return Verdict.no((x, p), note=f"powers of {x} stabilize at {v}; "
                                       f"F({p},{x})={p} at the jump {p}")
    if d.q.contains(ZERO):
        a0 = first_arg_above(f, ZERO)
        if side_limit(f, a0, "right") == 0:
            return Verdict.unknown(
                f"f vanishes up to {a0} with f({a0}+)=0, so the powers stay "
                f"above {a0}; no fixed point certifies it")
    return Verdict.yes("no jump of f traps the powers", "no zero plateau ends "
                       "at a zero limit", "T shrinks positive values")


def _idempotent_point(op: GeneratedOp):
    """The first p in (0,1) with F(p, p) = p, in x order, among the closed
    lower ends of f's pieces and the midpoints of its lines, as pairs, for
    an exact family; None when none of them is."""
    for s in op.f.segments:
        d = s.domain
        for k in ([(d.ln, d.ld)] if d.lo_closed else []) + (
                [reduced(d.ln * d.hd + d.hn * d.ld, 2 * d.ld * d.hd)] if s.sn else []):
            if 0 < k[0] < k[1] and op.t_finv(*op.f_pair(k), *op.f_pair(k))[0] == k:
                return Fraction(*k)
    return None


# Halvings that move _trap_witness's least trapped candidate towards the
# least x that F(p, .) sends to p, and the nearest 1 - 2^-k it tries.
TRAP_HALVINGS = 16
TRAP_NEAR_ONE = 64


def _trap_witness(op: GeneratedOp, traps):
    """(x, p, v) for the rule-J jumps (p, f(p), f(p-)) in `traps` of an
    exact family: an x in [p,1) with F(p, x) = p whose powers reach the
    exact fixed point v in the fewest steps, at most
    ``ARCH_WITNESS_STEPS``; None when no candidate x does.

    X = {x in [p,1) : F(p, x) = p} runs up to 1, as F(p, .) does not
    fall, and the powers of a smaller x are no larger, so the candidates
    lie near inf X.  For each p they are p, finv(v) and inf{x : f(x) > v}
    for the solutions v of T(v, f(p)) = f(p-), where F(p, .) reaches p,
    f's breakpoints in (p,1), and the midpoints between these points and
    1.  Where T(f(p), .) jumps over f(p-), no v solves it; then the least
    trapped candidate, or the first trapped 1 - 2^-k, moves towards inf X
    by halving.  The candidates found in X run in order of denominator,
    each capped at one step fewer than the best so far.

    It runs on reduced pairs, ordered by cross products and integer keys;
    a midpoint lies strictly between its neighbours, so the candidates need
    no sort of their own.  Only a best (x, p, v) is built of Fractions."""
    f, t = op.f, op.t
    best, cap = None, ARCH_WITNESS_STEPS
    for p, fp, fpm in traps:
        kp = pn, pd = p.numerator, p.denominator
        fkp = op.f_pair(kp)

        def trapped(k):  # F(p, k) = p
            return op.t_finv(*fkp, *op.f_pair(k))[0] == kp

        xs = {kp} | {(n, d) for _, n, d in f._breakpoints}
        for v in t_solve_pairs(t, fp.numerator, fp.denominator, fpm.numerator, fpm.denominator):
            xs.update((op._finv_entry(v)[0], _first_arg(f, *v, False)))
        ends = sorted_pairs([x for x in xs if x[0] * pd >= pn * x[1] and x[0] < x[1]])
        cands = []
        for a, b in zip(ends, ends[1:] + [(1, 1)]):
            cands += [a, reduced(a[0] * b[1] + b[0] * a[1], 2 * a[1] * b[1])]
        hits = [x for x in cands if trapped(x)]
        hi = hits[0] if hits else next(
            (h for h in ((2 ** k - 1, 2 ** k) for k in range(1, TRAP_NEAR_ONE + 1))
             if trapped(h)), None)
        if hi is None:
            continue
        hits = set(hits) | {hi}
        lo = next((x for x in reversed(cands) if x[0] * hi[1] < hi[0] * x[1]), None)
        if lo is not None:  # a candidate outside X, as all below hi are
            for _ in range(TRAP_HALVINGS):
                mid = reduced(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
                if trapped(mid):
                    hi = mid
                    hits.add(hi)
                else:
                    lo = mid
        for x in sorted(hits, key=lambda k: (k[1], k[0])):
            run = _stabilizes(op, x, kp, cap)
            if run is not None:
                best, cap = (Fraction(*x), p, Fraction(*run[1])), run[0] - 1
                if not cap:
                    return best
    return best


def _stabilizes(op: GeneratedOp, x: tuple, y: tuple, cap: int):
    """(steps, v) when the powers of x reach the exact fixed point v within
    `cap` steps, none of them below y; else None.  x, y and v are reduced
    pairs, and the powers run on the op's ``t_finv``."""
    fx = op.f_pair(x)
    acc = x
    for steps in range(1, cap + 1):
        nxt = op.t_finv(*op.f_pair(acc), *fx)[0]
        if nxt[0] * y[1] < y[0] * nxt[1]:
            return None
        if nxt == acc:
            return steps, nxt
        acc = nxt
    return None


# -- orchestration ----------------------------------------------------------


# The steps of the neutral-element and associativity search grids, and
# each grid's points k/n, which every function's grid shares, each with
# its reduced pair as in ``f._breakpoints``
NEUTRAL_GRID, ASSOC_GRID = 8, 6
_GRID_POINTS = {n: tuple((Fraction(i, n), *reduced(i, n)) for i in range(n + 1))
                for n in (NEUTRAL_GRID, ASSOC_GRID)}


def _search_grid(f: PiecewiseMonotoneFn, n: int) -> tuple:
    """The points k/n of ``_GRID_POINTS`` and f's breakpoints, ascending:
    the points of a search, built once per function and step
    (``f._search_grids``).  Both lists ascend from 0 to 1, so one merge by
    cross products of their pairs builds it, a point in both taken once,
    and both lists run out together, at 1."""
    pts = f._search_grids.get(n)
    if pts is None:
        a, b, i, j, out = f._breakpoints, _GRID_POINTS[n], 0, 0, []
        while i < len(a):
            c = a[i][1] * b[j][2] - b[j][1] * a[i][2]  # the sign of a[i] - b[j]
            out.append(a[i][0] if c <= 0 else b[j][0])
            i += c <= 0
            j += c >= 0
        pts = f._search_grids[n] = tuple(out)
    return pts


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
    F(x,1); None when there is none.  For an exact family F(x,1) is read
    as a reduced pair through the op's caches (``f_pair``, ``t_finv``) and
    compared with x's own."""
    if op.t.exact:
        c = op.f_pair((1, 1))
        for x in pts:
            k = x.numerator, x.denominator
            if op.t_finv(*op.f_pair(k), *c)[0] != k:
                return x, f_eval(op, x, ONE)
        return None
    for x in pts:
        v = f_eval(op, x, ONE)
        d, r = approx_diff(v, x)
        if abs(d) > r:
            return x, v
    return None


# The properties that the cancellation routes decide.
_ROUTED = ("t_subnorm", "conditionally_cancellative", "cancellative",
           "strictly_monotone_op")


def classify(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> ClassificationReport:
    """Full property report for F(x,y) = finv(T(f(x),f(y))).

    This is where the routes are chosen: the inclusion conditions run for
    the exact families, the strict exact route for product and hamacher2,
    and a corollary route for the other strict families.
    """
    op = make_op(f, t)
    top = f_eval(op, ONE, ONE)
    log = []
    props = check_degenerate(op, top)
    d = decompose(f) if f.nondecreasing else None
    if props is not None:
        log.append(("degenerate shape", "", "forced classification"))
    else:
        props = {"archimedean": check_archimedean(op),
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

    mm = t_image(t, d.m, d.m)
    canc = check_cancellative(op, d, mm)
    hk = check_prop_sufficient(t, d, mm)
    log.append(("gap-hull condition", f"K1={d.k1}", hk.status))
    if canc.status == "yes":
        ts = Verdict.yes("cancellative route")
    elif cc.status == "yes" and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", "both inclusion conditions")
    elif cc.status != "yes" and f.is_strictly_monotone and hk.status == "yes":
        ts = Verdict.yes("gap-hull condition", note="f strictly increasing")
    else:
        triple = _assoc_search(op, _search_grid(f, ASSOC_GRID))
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
    bad = _neutral_search(op, _search_grid(f, NEUTRAL_GRID))
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
