"""Output checks: No witnesses re-checked by direct evaluation, and the
verdict digest.

A witness re-checks when evaluating F = finv(T(f(x), f(y))) through the
public ``f_eval`` at the witness inputs shows the claimed failure.  For
error-radius families an equality of two F values is accepted only when it
follows exactly from equal f values, and a difference only when it exceeds
the carried radii.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from subnormforge import eval_fn, f_eval
from subnormforge.tnorms import Approx

ONE = Fraction(1)

# Properties whose No witness cannot be re-checked by evaluating F at
# finitely many points, with the reason.
UNRECHECKABLE = {
    "continuous": "the witness is a location where a one-sided limit differs "
                  "from the value; limits are not values of F",
}

# Power steps tried when re-checking an Archimedean witness; the classifier
# itself stops at 256.
ARCH_STEPS = 1024


def _exact(*vals) -> bool:
    return not any(isinstance(v, Approx) for v in vals)


def _differ(a, b) -> bool:
    """a != b beyond the error radii."""
    if _exact(a, b):
        return a != b
    va = a.value if isinstance(a, Approx) else a
    vb = b.value if isinstance(b, Approx) else b
    ra = a.radius if isinstance(a, Approx) else 0
    rb = b.radius if isinstance(b, Approx) else 0
    return abs(va - vb) > ra + rb


def _same_second_arg(op, x, y1, y2) -> bool:
    """F(x,y1) = F(x,y2) with y1 != y2 and x > 0."""
    if x == 0 or y1 == y2:
        return False
    a, b = f_eval(op, x, y1), f_eval(op, x, y2)
    if _exact(a, b):
        return a == b
    # F depends on y only through f(y)
    return eval_fn(op.f, y1) == eval_fn(op.f, y2)


def _not_associative(op, x, y, z) -> bool:
    xy, yz = f_eval(op, x, y), f_eval(op, y, z)
    if not _exact(xy, yz):
        return False
    return _differ(f_eval(op, xy, z), f_eval(op, x, yz))


def _recheck_t_norm(op, w) -> bool:
    if len(w) == 3:
        return _not_associative(op, *w)
    x = w[0]
    return (len(w) == 1 or w[1] == 1) and _differ(f_eval(op, x, ONE), x)


def _recheck_cc(op, w) -> bool:
    x1, x2, y = w
    if x1 == x2:
        return False
    a, b = f_eval(op, x1, y), f_eval(op, x2, y)
    if _exact(a, b):
        return a == b and a > 0
    return eval_fn(op.f, x1) == eval_fn(op.f, x2) and a.value > a.radius


def _recheck_archimedean(op, w) -> bool:
    """Powers of x reach an exact fixed point at or above y."""
    x, y = w
    acc = x
    for _ in range(ARCH_STEPS):
        nxt = f_eval(op, acc, x)
        if not _exact(nxt) or nxt < y:
            return False
        if nxt == acc:
            return True
        acc = nxt
    return False


def _recheck_proper(op, w) -> bool:
    if tuple(w) != (ONE, ONE):
        return False
    top = f_eval(op, ONE, ONE)
    if _exact(top):
        return top == 1
    return eval_fn(op.f, ONE) == 1 and abs(top.value - 1) <= top.radius


_RECHECK = {
    "t_subnorm": lambda op, w: _not_associative(op, *w),
    "t_norm": _recheck_t_norm,
    "conditionally_cancellative": _recheck_cc,
    "cancellative": lambda op, w: _same_second_arg(op, *w),
    "strictly_monotone_op": lambda op, w: _same_second_arg(op, *w),
    "archimedean": _recheck_archimedean,
    "proper": _recheck_proper,
}


def recheck_no(op, prop: str, witness) -> bool:
    """True when the No witness of ``prop`` shows the failure by direct
    evaluation.  A No without a witness never re-checks."""
    if witness is None:
        return False
    try:
        return _RECHECK[prop](op, tuple(witness))
    except (TypeError, ValueError):  # wrong arity, or inputs outside [0,1]
        return False


def classify_failures(op, verdicts) -> list:
    """Properties whose No witness fails to re-check.  ``verdicts`` is a
    sequence of ``(property, status, witness)``."""
    return [p for p, status, w in verdicts
            if status == "no" and p not in UNRECHECKABLE
            and not recheck_no(op, p, w)]


def _text(v) -> str:
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(_text(x) for x in v) + ")"
    return str(v)


def digest(results) -> str:
    """sha256 over the canonical text of unit results, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(_text(r).encode())
        h.update(b"\n")
    return h.hexdigest()
