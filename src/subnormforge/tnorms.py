"""T-norm families: exact evaluation on rationals where possible, interval
images for the exact families, and additive-generator based constructions
evaluated in high-precision arithmetic with a carried error radius.

The exact families evaluate on the numerators and denominators of their
arguments and build each result as one Fraction (``_exact_eval``); the
domain check of ``t_eval`` compares numerators with denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


# -- descriptors ------------------------------------------------------------

EXACT_FAMILIES = ("product", "minimum", "hamacher2", "halfprod")

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TNormDescriptor:
    family: str
    gen: Optional[GeneratorSpec] = None
    lam: Optional[Fraction] = None

    def __post_init__(self):
        if self.family in EXACT_FAMILIES:
            return
        if self.family == "generator":
            if self.gen is None:
                raise ValueError("generator family needs a GeneratorSpec")
        elif self.family == "lambda":
            if self.gen is None or self.lam is None:
                raise ValueError("lambda family needs a GeneratorSpec and lambda")
            if not (0 < self.lam < 1):
                raise ValueError(f"lambda must lie in (0,1), got {self.lam}")
        else:
            raise ValueError(f"unknown t-norm family {self.family!r}")

    @property
    def exact(self) -> bool:
        return self.family in EXACT_FAMILIES

    @property
    def continuous(self) -> bool:
        return self.family in ("product", "minimum", "hamacher2", "generator")

    @property
    def strictly_monotone(self) -> bool:
        return self.family != "minimum"

    @property
    def strict(self) -> bool:
        return self.continuous and self.strictly_monotone

    @property
    def neutral_one(self) -> bool:
        if self.family == "generator":
            return self.gen.g1_zero
        return True

    def __str__(self) -> str:
        if self.family == "generator":
            return f"gen:{self.gen.name}"
        if self.family == "lambda":
            return f"lambda:{self.gen.name}:{self.lam}"
        return {"minimum": "min"}.get(self.family, self.family)


PRODUCT = TNormDescriptor("product")
MINIMUM = TNormDescriptor("minimum")
HAMACHER2 = TNormDescriptor("hamacher2")
HALFPROD = TNormDescriptor("halfprod")


def generator_tnorm(gen: GeneratorSpec) -> TNormDescriptor:
    """The additively generated operation g^(-1)(g(x)+g(y)); a strict
    t-norm when g is a bijection onto [0,inf] (g(1)=0)."""
    return TNormDescriptor("generator", gen=gen)


def parse_tnorm(desc: str) -> TNormDescriptor:
    desc = desc.strip()
    plain = {"product": PRODUCT, "min": MINIMUM, "hamacher2": HAMACHER2, "halfprod": HALFPROD}
    if desc in plain:
        return plain[desc]
    if desc.startswith("gen:"):
        return generator_tnorm(GeneratorSpec(desc[4:]))
    if desc.startswith("lambda:"):
        try:
            _, gen, lam = desc.split(":")
            lam = Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad lambda descriptor {desc!r}") from None
        return TNormDescriptor("lambda", gen=GeneratorSpec(gen), lam=lam)
    raise ValueError(f"unknown t-norm descriptor {desc!r}")


# -- evaluation -------------------------------------------------------------


def _exact_eval(family: str, x: Fraction, y: Fraction) -> Fraction:
    """T(x,y) for an exact family on x = a/b and y = c/d, built as one
    Fraction from integers:

    - product: ac/(bd);
    - hamacher2: xy/(2 - x - y + xy) = ac/(2bd - ad - bc + ac), whose
      denominator is bd((1-x)(1-y) + 1) > 0;
    - halfprod: ac/(2bd) when 2a <= b and 2c <= d (x, y <= 1/2), else
      ac/(bd);
    - minimum: min(x, y).
    """
    if family == "minimum":
        return min(x, y)
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    if family == "product":
        return Fraction(a * c, b * d)
    if family == "hamacher2":
        ac = a * c
        return Fraction(ac, 2 * b * d - a * d - b * c + ac)
    if family == "halfprod":
        if 2 * a <= b and 2 * c <= d:
            return Fraction(a * c, 2 * b * d)
        return Fraction(a * c, b * d)
    raise ValueError(family)


def t_eval(t: TNormDescriptor, x, y):
    """T(x,y): a Fraction for exact families, an Approx otherwise."""
    x, y = frac(x), frac(y)
    if not (0 <= x.numerator <= x.denominator and 0 <= y.numerator <= y.denominator):
        raise DomainError(f"t-norm arguments ({x},{y}) outside [0,1]^2")
    if t.exact:
        return _exact_eval(t.family, x, y)
    if x == 0 or y == 0:
        return ZERO
    gen = t.gen
    with mpmath.workdps(DIGITS):
        if t.family == "generator":
            u = gen.g(mpmath.mpf(x.numerator) / x.denominator) + gen.g(
                mpmath.mpf(y.numerator) / y.denominator
            )
            v = gen.g_inv(u)
            v = min(max(v, mpmath.mpf(0)), mpmath.mpf(1))
            return Approx(_to_fraction(v), RADIUS)
        # lambda construction: min on the boundary, scaled generator inside
        if x == 1 or y == 1:
            return min(x, y)
        lam = mpmath.mpf(t.lam.numerator) / t.lam.denominator
        tx = gen.g(mpmath.mpf(x.numerator) / x.denominator / lam)
        ty = gen.g(mpmath.mpf(y.numerator) / y.denominator / lam)
        v = lam * gen.g_inv(tx + ty)
        v = min(max(v, mpmath.mpf(0)), mpmath.mpf(1))
        return Approx(_to_fraction(v), RADIUS)


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


# -- interval images (exact families only) ----------------------------------


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


def _box_image_min(A: Interval, B: Interval) -> Interval:
    if A.lo < B.lo:
        lo, lo_att = A.lo, A.lo_closed
    elif B.lo < A.lo:
        lo, lo_att = B.lo, B.lo_closed
    else:
        lo, lo_att = A.lo, A.lo_closed or B.lo_closed
    if A.hi < B.hi:
        hi, hi_att = A.hi, A.hi_closed
    elif B.hi < A.hi:
        hi, hi_att = B.hi, B.hi_closed
    else:
        hi, hi_att = A.hi, A.hi_closed and B.hi_closed
    iv = Interval.make(lo, hi, lo_att, hi_att)
    if iv is None:
        raise AssertionError("inconsistent min image")
    return iv


_LOWER_HALF = Interval.closed(0, HALF)
_UPPER_HALF = Interval.make(HALF, 1, False, True)


def t_image(t: TNormDescriptor, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Exact image T(A,B) = {T(x,y) | x in A, y in B}."""
    if not t.exact:
        raise ValueError("interval images are only available for exact families")
    out = []
    for A in a.parts:
        for B in b.parts:
            if t.strict:  # product, hamacher2
                out.append(_box_image_mono(lambda x, y: _exact_eval(t.family, x, y), A, B))
            elif t.family == "minimum":
                out.append(_box_image_min(A, B))
            elif t.family == "halfprod":
                # split along the branch boundary: xy/2 on [0,1/2]^2, xy
                # elsewhere.  Each branch keeps its own formula: a sub-box
                # open at 1/2 takes the limit of xy there, where _exact_eval
                # at 1/2 would give xy/2
                a_lo, a_hi = A.intersect(_LOWER_HALF), A.intersect(_UPPER_HALF)
                b_lo, b_hi = B.intersect(_LOWER_HALF), B.intersect(_UPPER_HALF)
                if a_lo and b_lo:
                    out.append(_box_image_mono(lambda x, y: x * y / 2, a_lo, b_lo))
                for A2, B2 in ((a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
                    if A2 and B2:
                        out.append(_box_image_mono(lambda x, y: x * y, A2, B2))
    return IntervalSet.of(out)


def t_solve_x(t: TNormDescriptor, y: Fraction, z: Fraction) -> list:
    """Verified solutions x in [0,1] of T(x,y) = z for exact families."""
    if not t.exact:
        return []
    candidates = []
    if y != 0:
        if t.family == "product":
            candidates = [z / y]
        elif t.family == "hamacher2":
            den = y + z - z * y
            if den != 0:
                candidates = [z * (2 - y) / den]
        elif t.family == "halfprod":
            candidates = [2 * z / y, z / y]
        elif t.family == "minimum":
            candidates = [z, y, ONE, (y + 1) / 2]
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
