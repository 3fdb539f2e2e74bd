"""T-norm families, one class each: exact evaluation on rationals where
possible, interval images for the exact families, and additive-generator
based constructions evaluated in high precision with a carried radius.

The exact families evaluate T(a/b, c/d) on integers, as a pair (n, d)
with d > 0 (``eval_pair``), which ``eval`` builds as one Fraction; the
domain check of ``t_eval`` compares numerators with denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .intervals import Interval, IntervalSet, ONE, ZERO, frac
from .pwfn import DomainError


@dataclass(frozen=True)
class Approx:
    """A high-precision value with a conservative error radius."""

    value: Fraction
    radius: Fraction

    def __float__(self):
        return float(self.value)


def approx_diff(a, b):
    """(d, r) with a - b in [d - r, d + r], for a and b exact or Approx:
    d is the difference of the centres and r the sum of the radii.

    Every comparison of values that may be Approx is a sign test on d
    against r; the caller picks the boundary rule.  An exact value has
    radius 0, so approx_diff(v, ZERO) is v's centre and radius, and (0, 0)
    means that a and b are equal exact values.
    """
    if isinstance(a, Approx):
        if isinstance(b, Approx):
            return a.value - b.value, a.radius + b.radius
        # b == 0 is the common centre-and-radius case; skip the subtraction
        return (a.value - b if b else a.value), a.radius
    if isinstance(b, Approx):
        return a - b.value, b.radius
    return (a - b if b else a), ZERO


def _to_fraction(x) -> Fraction:
    """Exact binary rational held by an mpf."""
    return Fraction(*mpmath.libmp.to_rational(mpmath.mpf(x)._mpf_))


# -- generator registry -----------------------------------------------------

# Generator families evaluate at DIGITS significant digits and carry the
# error radius RADIUS.
DIGITS = 30
RADIUS = Fraction(1, 10 ** (DIGITS - 5))


@dataclass(frozen=True)
class GeneratorSpec:
    """A registered decreasing generator g:[0,1]->[0,inf] with g(0)=inf.

    The registry is closed; each entry carries the forward formula (valid
    beyond 1 where the scaled construction needs it), the unclamped formula
    inverse, and whether g(1)=0 (i.e. the generated operation has neutral 1).
    """

    name: str

    def __post_init__(self):
        if self.name not in _GENERATORS:
            raise ValueError(f"unknown generator {self.name!r}")

    @property
    def g1_zero(self) -> bool:
        return _GENERATORS[self.name][2]

    def g(self, x):
        if x == 0:
            return mpmath.inf
        return _GENERATORS[self.name][0](x)

    def g_inv(self, u):
        """Unclamped formula inverse; the caller applies the pseudo-inverse
        clamp to the relevant domain."""
        if u == mpmath.inf:
            return mpmath.mpf(0)
        return _GENERATORS[self.name][1](u)


_GENERATORS = {
    # name: (g, formula inverse, g(1) == 0)
    "neglog": (lambda x: -mpmath.ln(x), lambda u: mpmath.e**-u, True),
    "one-minus-log": (lambda x: 1 - mpmath.ln(x), lambda u: mpmath.e ** (1 - u), False),
}


# -- families ---------------------------------------------------------------

HALF = Fraction(1, 2)


def _box_image_mono(phi, A: Interval, B: Interval) -> Interval:
    """Image of a box under a continuous t-norm branch that is strictly
    increasing in each argument on positive arguments and vanishes only
    when an argument vanishes."""
    lo, hi = phi(A.lo, B.lo), phi(A.hi, B.hi)
    lo_att = (A.lo_closed and B.lo_closed) or (
        lo == 0 and ((A.lo == 0 and A.lo_closed) or (B.lo == 0 and B.lo_closed))
    )
    hi_att = (A.hi_closed and B.hi_closed) or hi == 0
    iv = Interval.make(lo, hi, lo_att, hi_att)
    if iv is None:
        raise AssertionError("inconsistent box image")  # degenerate unattained point
    return iv


@dataclass(frozen=True)
class TNormDescriptor:
    """A t-norm family, one subclass each, equal when family and parameters
    are.  The flags are class attributes; each family owns ``eval_pair``
    (exact families, see above) or ``eval``, its box image, its solution
    candidates and its one-sided limits.  The defaults fit an exact family
    that is continuous and strictly increasing in each argument, with
    neutral element 1."""

    exact = True
    continuous = True
    strict = True  # continuous and strictly monotone
    neutral_one = True
    lam = None  # the scale of the lambda construction

    def __str__(self) -> str:
        return self.name

    def eval(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(*self.eval_pair(x.numerator, x.denominator,
                                        y.numerator, y.denominator))

    def box_image(self, A: Interval, B: Interval) -> list:
        """T(A,B) for one box, as a list of intervals."""
        return [_box_image_mono(self.eval, A, B)]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        """(lim T(u,c) as u -> v from `side`, whether T(u,c) is constant
        for u on that side of v)."""
        return self.eval(v, c), False


class Product(TNormDescriptor):
    name = "product"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """ac/(bd) for x = a/b and y = c/d."""
        return a * c, b * d

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [z / y]


class Hamacher2(TNormDescriptor):
    name = "hamacher2"

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """xy/(2 - x - y + xy) = ac/(2bd - ad - bc + ac) for x = a/b and
        y = c/d, whose denominator is bd((1-x)(1-y) + 1) > 0."""
        ac = a * c
        return ac, 2 * b * d - a * d - b * c + ac

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        den = y + z - z * y
        return [z * (2 - y) / den] if den != 0 else []


class Minimum(TNormDescriptor):
    name = "min"
    strict = False

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """The lesser of a/b and c/d, by the sign of ad - cb."""
        return (a, b) if a * d <= c * b else (c, d)

    def box_image(self, A: Interval, B: Interval) -> list:
        # each end is the lesser of the two ends; on a tie the lower end is
        # closed if either is, the upper end only if both are
        lo, lo_open = min((A.lo, not A.lo_closed), (B.lo, not B.lo_closed))
        hi, hi_closed = min((A.hi, A.hi_closed), (B.hi, B.hi_closed))
        return [Interval.make(lo, hi, not lo_open, hi_closed)]

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [z, y, ONE, (y + 1) / 2]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        # min(u,c) = c for every u near v once c < v, and for u > v once c = v
        return self.eval(v, c), c < v or (c == v and side == "right")


_LOWER_HALF = Interval.closed(0, HALF)
_UPPER_HALF = Interval.make(HALF, 1, False, True)


class Halfprod(TNormDescriptor):
    """xy/2 on [0,1/2]^2 and xy elsewhere: commutative, strictly monotone
    and bounded by min, but neither continuous nor associative."""

    name = "halfprod"
    continuous = False
    strict = False

    def eval_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """ac/(2bd) when 2a <= b and 2c <= d (x, y <= 1/2), else ac/(bd),
        for x = a/b and y = c/d."""
        if 2 * a <= b and 2 * c <= d:
            return a * c, 2 * b * d
        return a * c, b * d

    def box_image(self, A: Interval, B: Interval) -> list:
        # split along the branch boundary.  Each branch keeps its own
        # formula: a sub-box open at 1/2 takes the limit of xy there, where
        # eval at 1/2 would give xy/2
        a_lo, a_hi = A.intersect(_LOWER_HALF), A.intersect(_UPPER_HALF)
        b_lo, b_hi = B.intersect(_LOWER_HALF), B.intersect(_UPPER_HALF)
        out = []
        if a_lo and b_lo:
            out.append(_box_image_mono(lambda x, y: x * y / 2, a_lo, b_lo))
        for A2, B2 in ((a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
            if A2 and B2:
                out.append(_box_image_mono(lambda x, y: x * y, A2, B2))
        return out

    def solve_candidates(self, y: Fraction, z: Fraction) -> list:
        return [2 * z / y, z / y]

    def dir_limit(self, v: Fraction, side: str, c: Fraction) -> tuple:
        if side == "right" and v == HALF and 0 < c <= HALF:
            return c / 2, False  # the plain-product branch takes over just above 1/2
        return super().dir_limit(v, side, c)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _clamped(v) -> Approx:
    """v clamped to [0,1] as an Approx; call inside ``workdps(DIGITS)``."""
    return Approx(_to_fraction(min(max(v, mpmath.mpf(0)), mpmath.mpf(1))), RADIUS)


@dataclass(frozen=True)
class Generator(TNormDescriptor):
    """The additively generated operation g^(-1)(g(x)+g(y)); a strict
    t-norm when g is a bijection onto [0,inf] (g(1)=0)."""

    gen: GeneratorSpec
    exact = False

    @property
    def neutral_one(self) -> bool:
        return self.gen.g1_zero

    def eval(self, x: Fraction, y: Fraction):
        if x == 0 or y == 0:
            return ZERO
        g = self.gen
        with mpmath.workdps(DIGITS):
            return _clamped(g.g_inv(g.g(_mpf(x)) + g.g(_mpf(y))))

    def __str__(self) -> str:
        return f"gen:{self.gen.name}"


@dataclass(frozen=True)
class Lambda(TNormDescriptor):
    """The strictly monotone operation built from the scaled generator
    g(x/lam): min on the boundary of the unit square and
    lam * g^(-1)(g(x/lam) + g(y/lam)) inside."""

    gen: GeneratorSpec
    lam: Fraction = field()  # no default: the base's lam = None is not one
    exact = False
    continuous = False
    strict = False

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ValueError(f"lambda must lie in (0,1), got {self.lam}")

    def eval(self, x: Fraction, y: Fraction):
        if x in (0, 1) or y in (0, 1):  # the boundary of the unit square
            return min(x, y)
        g = self.gen
        with mpmath.workdps(DIGITS):
            lam = _mpf(self.lam)
            return _clamped(lam * g.g_inv(g.g(_mpf(x) / lam) + g.g(_mpf(y) / lam)))

    def __str__(self) -> str:
        return f"lambda:{self.gen.name}:{self.lam}"


PRODUCT = Product()
MINIMUM = Minimum()
HAMACHER2 = Hamacher2()
HALFPROD = Halfprod()


def parse_tnorm(desc: str) -> TNormDescriptor:
    desc = desc.strip()
    plain = {str(t): t for t in (PRODUCT, MINIMUM, HAMACHER2, HALFPROD)}
    if desc in plain:
        return plain[desc]
    if desc.startswith("gen:"):
        return Generator(GeneratorSpec(desc[4:]))
    if desc.startswith("lambda:"):
        try:
            _, gen, lam = desc.split(":")
            lam = Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad lambda descriptor {desc!r}") from None
        return Lambda(GeneratorSpec(gen), lam)
    raise ValueError(f"unknown t-norm descriptor {desc!r}")


# -- evaluation -------------------------------------------------------------


def t_eval(t: TNormDescriptor, x, y):
    """T(x,y): a Fraction for exact families, an Approx otherwise."""
    x, y = frac(x), frac(y)
    if not (0 <= x.numerator <= x.denominator and 0 <= y.numerator <= y.denominator):
        raise DomainError(f"t-norm arguments ({x},{y}) outside [0,1]^2")
    return t.eval(x, y)


def t_power(t: TNormDescriptor, x, n: int):
    """n-fold self-composition x_T^(n), left-associated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = frac(x)
    acc = x
    radius = ZERO
    for _ in range(n - 1):
        r = t_eval(t, acc, x)
        if isinstance(r, Approx):
            acc, radius = r.value, radius + r.radius
        else:
            acc = r
    if radius:
        return Approx(acc, radius)
    return acc


# -- interval images and solutions (exact families only) ----------------------


def t_image(t: TNormDescriptor, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Exact image T(A,B) = {T(x,y) | x in A, y in B}."""
    if not t.exact:
        raise ValueError("interval images are only available for exact families")
    return IntervalSet.of([iv for A in a.parts for B in b.parts
                           for iv in t.box_image(A, B)])


def t_solve_x(t: TNormDescriptor, y: Fraction, z: Fraction) -> list:
    """Verified solutions x in [0,1] of T(x,y) = z for exact families."""
    if not t.exact:
        return []
    candidates = []
    if y != 0:
        candidates = t.solve_candidates(y, z)
    elif z == 0:
        candidates = [ZERO, HALF, ONE]
    out = []
    for x in candidates:
        if 0 <= x <= 1 and t_eval(t, x, y) == z and x not in out:
            out.append(x)
    return out


def t_preimage(t: TNormDescriptor, y: Fraction, z_iv: Interval) -> IntervalSet:
    """{x in [0,1] : T(x,y) in Z} for the strict exact families, where
    T(.,y) is continuous and strictly increasing for y > 0."""
    if not (t.exact and t.strict):
        raise ValueError("preimages are only available for strict exact families")
    y = frac(y)
    if y == 0:
        return IntervalSet.unit() if z_iv.contains(ZERO) else IntervalSet.empty()
    top = t_eval(t, ONE, y)  # = y for these families
    if z_iv.lo > top:
        return IntervalSet.empty()
    xs = t_solve_x(t, y, z_iv.lo)
    x_lo, lo_closed = (xs[0], z_iv.lo_closed) if xs else (ZERO, True)
    if z_iv.hi >= top:
        x_hi, hi_closed = ONE, True if z_iv.hi > top else z_iv.hi_closed
    else:
        xs = t_solve_x(t, y, z_iv.hi)
        if not xs:
            raise AssertionError("preimage endpoint did not solve")
        x_hi, hi_closed = xs[0], z_iv.hi_closed
    return IntervalSet.single(Interval.make(x_lo, x_hi, lo_closed, hi_closed))
