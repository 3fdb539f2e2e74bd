"""Golden verdicts: every Verdict field of every property, and the
consistency harness rows, for the worked examples.

The golden file pins the classifier's evidence texts, notes, witnesses and
Approx values (written as their exact centre and radius), which the
rendered golden CSVs do not cover for the generator families.  Regenerate
it only for an intended verdict change:

    PYTHONPATH=src python tests/test_golden_verdicts.py
"""

import json
from fractions import Fraction
from pathlib import Path

from conftest import WORKED_EXAMPLES
from subnormforge import classify, consistency_harness, parse_fn, parse_tnorm
from subnormforge.classify import PROPERTIES
from subnormforge.tnorms import Approx

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

CLASSIFY_TNORMS = ("product", "hamacher2", "min", "halfprod", "gen:neglog",
                   "lambda:one-minus-log:1/2")
HARNESS_TNORMS = ("product", "gen:neglog")


def _encode(v):
    """JSON form that keeps Fraction, int, str and Approx apart."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Approx):
        return {"value": _encode(v.value), "radius": _encode(v.radius)}
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    raise TypeError(f"unexpected value {v!r} of type {type(v).__name__}")


def _verdicts():
    out = {}
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        for desc in CLASSIFY_TNORMS:
            report = classify(f, parse_tnorm(desc))
            out[f"{name} x {desc}"] = {
                prop: {
                    "status": v.status,
                    "evidence": _encode(v.evidence),
                    "witness": _encode(v.witness),
                    "resolution": v.resolution,
                    "note": v.note,
                }
                for prop, v in ((p, report.verdict(p)) for p in PROPERTIES)
            }
    return out


def _harness():
    out = {}
    for name, text in WORKED_EXAMPLES.items():
        f = parse_fn(text)
        for desc in HARNESS_TNORMS:
            rep = consistency_harness(f, parse_tnorm(desc), n=6, arch_grid_n=6)
            out[f"{name} x {desc}"] = {
                "rows": [list(row) for row in rep.rows],
                "hard_failures": list(rep.hard_failures),
            }
    return out


def _current():
    return {"verdicts": _verdicts(), "harness": _harness()}


def _dump(data) -> str:
    return json.dumps(data, indent=1, ensure_ascii=False, sort_keys=True) + "\n"


def test_golden_verdicts():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = _current()
    assert sorted(current["verdicts"]) == sorted(golden["verdicts"])
    for key, props in golden["verdicts"].items():
        assert current["verdicts"][key] == props, key
    assert current["harness"] == golden["harness"]


if __name__ == "__main__":
    GOLDEN.write_text(_dump(_current()), encoding="utf-8")
