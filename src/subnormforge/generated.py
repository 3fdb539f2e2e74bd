"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions.

``GeneratedOp`` owns the exact evaluation of F, on reduced integer pairs
(numerator, denominator): f and finv run on pairs (``pwfn.eval_pair``), and
for an exact t-norm family so does T (the family's ``eval_pair``).  Each op
caches f by its argument's reduced pair and finv by T's reduced pair, and
holds each value as both its reduced pair and its Fraction.  So an
evaluation whose f and finv values are cached builds no ``Fraction``, and
its keys are tuples of ints, which hash in C where a ``Fraction`` rehashes
in Python.  ``f_eval`` returns the cached Fraction, and the oracle's
``_Memo`` keys its ids by the pair.  Inexact families go through
``f_compose``, which carries T's error radius through the pseudo-inverse:
it evaluates finv at T's centre and at either end of its radius on integer
pairs too, and builds only the centre and the radius as Fractions.  It
hands T's family the op's ``_g_cache``, where a generator family keeps g
of each f value by its reduced pair, so an f value that recurs, as f(x)
does at every step of a power sequence of x, costs g once per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intervals import Interval, frac
from .pwfn import PiecewiseMonotoneFn, Segment, eval_pair
from .tnorms import Approx, Generator, GeneratorSpec, Lambda, TNormDescriptor, t_eval


def value_key(v) -> tuple:
    """A value's cache key: (numerator, denominator), and for an Approx its
    value's pair then its radius's.  Unlike ``Fraction``, which recomputes
    its hash in Python on every call, a tuple of ints hashes in C."""
    if isinstance(v, Approx):
        return value_key(v.value) + value_key(v.radius)
    return v.numerator, v.denominator


def _both(pair: tuple) -> tuple:
    """The value of an integer pair as (its reduced pair, its Fraction)."""
    v = Fraction(*pair)
    return (v.numerator, v.denominator), v


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))), with f and finv evaluated once per
    argument: ``_f_cache`` maps the reduced pair of x to f(x), and
    ``_finv_cache`` the reduced pair of y to finv(y), each value held as
    its reduced pair and its Fraction (``_both``).  ``_g_cache`` is the
    memo that ``f_compose`` hands to T's family with each evaluation; a
    generator family keeps g of each f value there."""

    f: PiecewiseMonotoneFn
    finv: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False)
    _finv_cache: dict = field(default_factory=dict, repr=False)
    _g_cache: dict = field(default_factory=dict, repr=False)

    def f_pair(self, k: tuple) -> tuple:
        """f(p/q) as (reduced pair, Fraction), for the reduced pair k = (p, q)."""
        v = self._f_cache.get(k)
        if v is None:
            v = self._f_cache[k] = _both(eval_pair(self.f, *k))
        return v

    def t_finv(self, a: int, b: int, c: int, d: int) -> tuple:
        """finv(T(a/b, c/d)) as (reduced pair, Fraction), for an exact
        family and f values a/b, c/d.  No domain check, as f's values lie
        in [0,1].  The reduction and the finv lookup are written out, not
        called, as this runs once per evaluation."""
        n, e = self.t.eval_pair(a, b, c, d)
        g = gcd(n, e)
        k = n // g, e // g
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = _both(eval_pair(self.finv, *k))
        return v

    def f_at(self, x: Fraction) -> Fraction:
        """f(x) for an exact x."""
        return self.f_pair((x.numerator, x.denominator))[1]

    def finv_at(self, y: Fraction) -> Fraction:
        """finv(y) for an exact y, from ``t_finv``'s cache."""
        k = y.numerator, y.denominator
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = _both(eval_pair(self.finv, *k))
        return v[1]

    def __call__(self, x, y):
        return f_eval(self, x, y)


def make_op(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> GeneratedOp:
    """F for f and T, on f's pseudo-inverse, which f builds once and every
    operation on f shares."""
    return GeneratedOp(f, f._pseudo_inverse, t)


def f_eval(op: GeneratedOp, x, y):
    """F(x,y) = finv(T(f(x), f(y))): on integer pairs (``t_finv``) for an
    exact family, else through ``f_compose``."""
    x, y = frac(x), frac(y)
    if op.t.exact:
        return op.t_finv(*op.f_pair((x.numerator, x.denominator))[0],
                         *op.f_pair((y.numerator, y.denominator))[0])[1]
    return f_compose(op, op.f_at(x), op.f_at(y))


def f_compose(op: GeneratedOp, fx, fy):
    """finv(T(fx, fy)), so F(x,y) from fx = f(x) and fy = f(y), for an
    inexact family: an Approx whose radius accounts for the local variation
    of the pseudo-inverse, or an exact Fraction where T's value is exact.

    For T's value v = p/q with radius r = m/n, finv is taken at v and at
    v - r and v + r, clamped to [0,1], on integer pairs over the common
    denominator qn (``eval_pair``), and the spread is the larger distance
    from finv(v) to either side, compared by cross-multiplying; only the
    centre and the radius become Fractions."""
    tv = t_eval(op.t, fx, fy, op._g_cache)
    if not isinstance(tv, Approx):
        return op.finv_at(tv)
    finv, v, r = op.finv, tv.value, tv.radius
    p, q, m, n = v.numerator, v.denominator, r.numerator, r.denominator
    cn, cd = eval_pair(finv, p, q)
    den = q * n
    ln, ld = eval_pair(finv, max(0, p * n - m * q), den)
    hn, hd = eval_pair(finv, min(den, p * n + m * q), den)
    # finv is non-increasing when f is, so each side's distance is taken
    # as an absolute value
    sn, sd = abs(cn * ld - ln * cd), cd * ld
    bn, bd = abs(hn * cd - cn * hd), hd * cd
    if bn * sd > sn * bd:
        sn, sd = bn, bd
    return Approx(Fraction(cn, cd), Fraction(sn, sd) if sn * n > m * sd else r)


def additive_generated(gen: GeneratorSpec):
    """(x,y) -> g^(-1)(g(x)+g(y)) with the pseudo-inverse clamp to [0,1];
    a continuous cancellative t-subnorm when g(0) = inf."""
    t = Generator(gen)
    return lambda x, y: t_eval(t, x, y)


def lambda_decompose(gen: GeneratorSpec, lam) -> tuple:
    """Split the additively generated operation into (f, T) with
    f(x) = lam*x and the strictly monotone t-norm built from the scaled
    generator t(x) = g(x/lam) for x < 1, t(1) = 0.

    Composing f_eval over the result reproduces the additively generated
    operation on the whole square.
    """
    t = Lambda(gen, frac(lam))
    f = PiecewiseMonotoneFn(True, (Segment.linear(Interval.closed(0, 1), t.lam, 0),))
    return f, t
