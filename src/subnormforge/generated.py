"""Generated operations F(x,y) = finv(T(f(x), f(y))) and the additive /
scaled-generator constructions.

``GeneratedOp`` owns the evaluation of F, on reduced integer pairs
(numerator, denominator): f runs on pairs (``pwfn.eval_pair``), finv at a
point is the scan of f's pieces that defines it (``pwfn._first_arg``),
and T runs on pairs too (the family's ``eval_pair``), for every family.
Each op caches f by its argument's reduced pair and finv by T's reduced
pair, and holds each value as its reduced pair; ``f_at``, ``finv_at`` and
``f_eval`` build a ``Fraction`` of the pair they return.  So an
evaluation on pairs builds no ``Fraction``, cached or not, and its keys
are tuples of ints, which hash in C where a ``Fraction`` rehashes in
Python.  ``t_finv`` returns F's value as its key (``tnorms._key``): a
reduced pair where T's value is exact, and otherwise the centre's and the
radius's pairs, which carry T's error radius through the pseudo-inverse
(``_spread``): finv is taken at T's centre and at either end of its
radius, on integer pairs too.  ``row`` evaluates F along a row of f
values: with an exact T, finv runs over T's values in one forward sweep
of f's pieces (``pwfn._first_args``), the same scan.  No route builds
finv's closed form (``pwfn.pseudo_inverse``), which stays the tests'
reference for the scan.  The oracle's ``_Memo`` reads f's pairs
(``f_pair``) as the classes of its values, with no f cache of its own,
and evaluates a row at a time through ``row``, as the classifier's
associativity search does, holding each value as its key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intervals import Interval, frac, reduced
from .pwfn import PiecewiseMonotoneFn, Segment, _first_arg, _first_args, _unit_arg, eval_pair
from .tnorms import Generator, GeneratorSpec, Lambda, TNormDescriptor, _value, t_eval


@dataclass
class GeneratedOp:
    """F(x,y) = finv(T(f(x), f(y))), with f and finv evaluated once per
    argument: ``_f_cache`` maps the reduced pair of x to that of f(x), and
    ``_finv_cache`` the reduced pair of y to that of finv(y).  ``f_pair``
    and ``finv_pair`` return these pairs, ``t_finv`` the key of F's value
    and ``row`` those of a row of F; ``f_at``, ``finv_at`` and ``f_eval``
    build the value of one as they return it.  finv is read only by
    scanning f's pieces, at a point (``pwfn._first_arg``) or along a row
    (``pwfn._first_args``).  Two operations are equal when their f and t
    are, whatever their caches hold."""

    f: PiecewiseMonotoneFn
    t: TNormDescriptor
    _f_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _finv_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def f_pair(self, k: tuple) -> tuple:
        """f(p/q) as a reduced pair, for the reduced pair k = (p, q)."""
        v = self._f_cache.get(k)
        if v is None:
            v = self._f_cache[k] = reduced(*eval_pair(self.f, *k))
        return v

    def finv_pair(self, k: tuple) -> tuple:
        """finv(p/q) as a reduced pair, for the reduced pair k = (p, q),
        0 <= p/q <= 1: the pointwise definition, a scan of f's pieces."""
        v = self._finv_cache.get(k)
        if v is None:
            v = self._finv_cache[k] = reduced(*_first_arg(self.f, *k, True))
        return v

    def t_finv(self, a: int, b: int, c: int, d: int) -> tuple:
        """The key of finv(T(a/b, c/d)), for f values a/b, c/d: where T's
        value is exact, finv's reduced pair, through the finv cache keyed
        by T's pair, reduced; else an Approx's key, whose radius accounts
        for the local variation of the pseudo-inverse (``_spread``).  No
        domain check, as f's values lie in [0,1]."""
        k = self.t.eval_pair(a, b, c, d)
        if len(k) == 2:
            n, e = k
            g = gcd(n, e)
            return self.finv_pair((n // g, e // g))
        cn, cd, sn, sd = _spread(self.f, *k)
        return (cn, cd, *reduced(sn, sd))

    def row(self, w: tuple, vs) -> list:
        """[t_finv(*w, *v) for v in vs], for the f value w and the f values
        vs, reduced pairs.  With an exact T, finv runs over T's values in one
        ``_first_args`` sweep, which takes one pass over f's pieces when f
        is non-decreasing and the vs ascend (T is non-decreasing in its
        second argument), and each value is reduced here, without the finv
        cache; an inexact T gives each entry by ``t_finv``."""
        a, b = w
        if not self.t.exact:
            t_finv = self.t_finv
            return [t_finv(a, b, c, d) for c, d in vs]
        t = self.t.eval_pair
        return [reduced(n, d) for n, d in _first_args(self.f, [t(a, b, c, d) for c, d in vs], True)]

    def f_at(self, x: Fraction) -> Fraction:
        """f(x) for an exact x."""
        return Fraction(*self.f_pair((x.numerator, x.denominator)))

    def finv_at(self, y: Fraction) -> Fraction:
        """finv(y) for an exact y; DomainError when it lies outside [0,1]."""
        y = _unit_arg(y)
        return Fraction(*self.finv_pair((y.numerator, y.denominator)))

    def __call__(self, x, y):
        return f_eval(self, x, y)


def make_op(f: PiecewiseMonotoneFn, t: TNormDescriptor) -> GeneratedOp:
    """F for f and T.  It builds nothing: finv is read from f's pieces."""
    return GeneratedOp(f, t)


def f_eval(op: GeneratedOp, x, y):
    """F(x,y) = finv(T(f(x), f(y))), on integer pairs (``t_finv``): a
    Fraction where F's value is exact, else an Approx."""
    x, y = frac(x), frac(y)
    return _value(op.t_finv(*op.f_pair((x.numerator, x.denominator)),
                            *op.f_pair((y.numerator, y.denominator))))


def _spread(f: PiecewiseMonotoneFn, p: int, q: int, m: int, n: int) -> tuple:
    """finv, f's pseudo-inverse, at T's value p/q with radius m/n, as
    (cn, cd, sn, sd): the centre finv(p/q), a reduced pair, and the radius
    sn/sd, not reduced, the larger of m/n and the spread of finv over
    [p/q - m/n, p/q + m/n].

    finv is taken at p/q and at p/q - m/n and p/q + m/n, clamped to [0,1],
    on integer pairs over the common denominator qn, each by the scan of
    f's pieces that defines it (``pwfn._first_arg``), the two ends left
    unreduced, and the spread is the larger distance from finv(p/q) to
    either side, each comparison made by cross-multiplying."""
    cn, cd = reduced(*_first_arg(f, p, q, True))
    den = q * n
    ln, ld = _first_arg(f, max(0, p * n - m * q), den, True)
    hn, hd = _first_arg(f, min(den, p * n + m * q), den, True)
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
