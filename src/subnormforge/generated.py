"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions.

``GeneratedOp`` owns the exact evaluation of F, on reduced integer pairs
(numerator, denominator): f and finv run on pairs (``pwfn.eval_pair``), and
for an exact t-norm family so does T (the family's ``eval_pair``).  Each op
caches f by its argument's reduced pair and finv by T's reduced pair, and
holds each value as its reduced pair; ``f_at``, ``finv_at`` and ``f_eval``
build a ``Fraction`` of the pair they return.  So an evaluation on pairs
builds no ``Fraction``, cached or not, and its keys are tuples of ints,
which hash in C where a ``Fraction`` rehashes in Python.  The oracle's
``_Memo`` reads f's pairs (``f_pair``) as the classes of its values, with
no f cache of its own, and evaluates T and finv itself, a row at a time
(``_Memo.eval_row``), holding each value as its reduced pair.
Inexact families go through ``f_compose``, which carries T's error radius
through the pseudo-inverse (``_spread``): it evaluates finv at T's centre
and at either end of its radius on integer pairs too, and builds only the
centre and the radius as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intervals import Interval, frac, reduced
from .pwfn import PiecewiseMonotoneFn, Segment, eval_pair
from .tnorms import Approx, Generator, GeneratorSpec, Lambda, TNormDescriptor, t_eval


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))), with f and finv evaluated once per
    argument: ``_f_cache`` maps the reduced pair of x to that of f(x), and
    ``_finv_cache`` the reduced pair of y to that of finv(y).  ``f_pair``,
    ``finv_pair`` and ``t_finv`` return these pairs; ``f_at``, ``finv_at``
    and ``f_eval`` build a Fraction of one as they return it."""

    f: PiecewiseMonotoneFn
    finv: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False)
    _finv_cache: dict = field(default_factory=dict, repr=False)

    def f_pair(self, k: tuple) -> tuple:
        """f(p/q) as a reduced pair, for the reduced pair k = (p, q)."""
        v = self._f_cache.get(k)
        if v is None:
            v = self._f_cache[k] = reduced(*eval_pair(self.f, *k))
        return v

    def finv_pair(self, k: tuple) -> tuple:
        """finv(p/q) as a reduced pair, for the reduced pair k = (p, q)."""
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = reduced(*eval_pair(self.finv, *k))
        return v

    def t_finv(self, a: int, b: int, c: int, d: int) -> tuple:
        """finv(T(a/b, c/d)) as a reduced pair, for an exact family and f
        values a/b, c/d: T's pair, reduced, is the key.  No domain check,
        as f's values lie in [0,1]."""
        n, e = self.t.eval_pair(a, b, c, d)
        g = gcd(n, e)
        return self.finv_pair((n // g, e // g))

    def f_at(self, x: Fraction) -> Fraction:
        """f(x) for an exact x."""
        return Fraction(*self.f_pair((x.numerator, x.denominator)))

    def finv_at(self, y: Fraction) -> Fraction:
        """finv(y) for an exact y."""
        return Fraction(*self.finv_pair((y.numerator, y.denominator)))

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
        return Fraction(*op.t_finv(*op.f_pair((x.numerator, x.denominator)),
                                   *op.f_pair((y.numerator, y.denominator))))
    return f_compose(op, op.f_at(x), op.f_at(y))


def f_compose(op: GeneratedOp, fx, fy):
    """finv(T(fx, fy)), so F(x,y) from fx = f(x) and fy = f(y), for an
    inexact family: an Approx whose radius accounts for the local variation
    of the pseudo-inverse (``_spread``), or an exact Fraction where T's
    value is exact."""
    tv = t_eval(op.t, fx, fy)
    if not isinstance(tv, Approx):
        return op.finv_at(tv)
    v, r = tv.value, tv.radius
    cn, cd, sn, sd = _spread(op.finv, v.numerator, v.denominator, r.numerator, r.denominator)
    return Approx(Fraction(cn, cd), Fraction(sn, sd))


def _spread(finv: PiecewiseMonotoneFn, p: int, q: int, m: int, n: int) -> tuple:
    """finv at T's value p/q with radius m/n, as (cn, cd, sn, sd): the
    centre finv(p/q), a reduced pair, and the radius sn/sd, the larger of
    m/n and the spread of finv over [p/q - m/n, p/q + m/n].

    finv is taken at p/q and at p/q - m/n and p/q + m/n, clamped to [0,1],
    on integer pairs over the common denominator qn (``eval_pair``), and
    the spread is the larger distance from finv(p/q) to either side, each
    comparison made by cross-multiplying."""
    cn, cd = reduced(*eval_pair(finv, p, q))
    den = q * n
    ln, ld = eval_pair(finv, max(0, p * n - m * q), den)
    hn, hd = eval_pair(finv, min(den, p * n + m * q), den)
    # finv is non-increasing when f is, so each side's distance is taken
    # as an absolute value
    sn, sd = abs(cn * ld - ln * cd), cd * ld
    bn, bd = abs(hn * cd - cn * hd), hd * cd
    if bn * sd > sn * bd:
        sn, sd = bn, bd
    if sn * n <= m * sd:
        sn, sd = m, n
    return cn, cd, sn, sd


def additive_generated(gen: GeneratorSpec):
    """(x,y) -> g^(-1)(g(x)+g(y)) with the pseudo-inverse clamp to [0,1];
    a continuous cancellative t-subnorm when g(0) = inf."""
    t = Generator(gen)
    return lambda x, y: t_eval(t, x, y)


def lambda_decompose(gen: GeneratorSpec, lam) -> tuple:
    """Split the additively generated operation into (f, T) with
    f(x) = lam*x and the strictly monotone operation built from the scaled
    generator t(x) = g(x/lam) for x < 1, t(1) = 0, which is a t-norm only
    where ``Lambda.is_t_norm`` says so.

    Composing f_eval over the result reproduces the additively generated
    operation on the whole square.
    """
    t = Lambda(gen, frac(lam))
    f = PiecewiseMonotoneFn(True, (Segment.linear(Interval.closed(0, 1), t.lam, 0),))
    return f, t
