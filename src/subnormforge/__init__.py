"""Exact piecewise monotone functions, t-norms, and the generated
operation F(x,y) = finv(T(f(x),f(y))) with a three-valued algebraic
classifier and a brute-force oracle."""

from .intervals import Interval, IntervalSet, frac
from .pwfn import (
    Decomposition,
    PiecewiseMonotoneFn,
    Segment,
    decompose,
    eval_fn,
    plateau_set,
    pseudo_inverse,
    pseudo_inverse_at,
    range_of,
    side_limit,
)
from .fnformat import load_fn, parse_fn, render_fn
from .tnorms import (
    Generator,
    GeneratorSpec,
    TNormDescriptor,
    parse_tnorm,
    t_eval,
    t_image,
    t_power,
)
from .generated import (
    GeneratedOp,
    additive_generated,
    f_eval,
    lambda_decompose,
    make_op,
)
from .classify import ClassificationReport, Verdict, classify
from .oracle import check_property, consistency_harness, grid

__all__ = [
    "Interval", "IntervalSet", "frac",
    "Decomposition", "PiecewiseMonotoneFn", "Segment", "decompose",
    "eval_fn", "plateau_set", "pseudo_inverse", "pseudo_inverse_at",
    "range_of", "side_limit",
    "load_fn", "parse_fn", "render_fn",
    "Generator", "GeneratorSpec", "TNormDescriptor", "parse_tnorm",
    "t_eval", "t_image", "t_power",
    "GeneratedOp", "additive_generated", "f_eval", "lambda_decompose",
    "make_op",
    "ClassificationReport", "Verdict", "classify",
    "check_property", "consistency_harness", "grid",
]
