"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import recheck_no  # noqa: E402
from corpus import WORKED_EXAMPLES, corpus  # noqa: E402
from subnormforge import classify, f_eval, make_op, parse_fn, parse_tnorm  # noqa: E402

# the smallest run: every workload's floor of units
TINY = ["--seed", "5", "--seconds", "0.1"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def digests(stdout):
    return [line.split()[-1] for line in stdout.splitlines()
            if line.startswith("digest")]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_has_no_failures(workload):
    out = run_bench("--workload", workload, *TINY, "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_digest_same_with_and_without_tracing():
    import run
    from checks import digest
    from spans import Tracer

    w = run.WORKLOADS["classify-mix"]
    lib, texts, fns, tnorms = run.setup(w, 5)
    units = run.unit_list(w, texts, 5, 0.1)
    plain, _, _ = run.run_pass(lib, w, units, fns, tnorms)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = run.run_pass(lib, w, units, fns, tnorms, tracer=tracer)
    finally:
        tracer.uninstall()
    assert len(traced) == len(units) and len(tracer) > 0
    assert digest(traced) == digest(plain)


def test_traced_run_reports_every_layer_metric():
    out = run_bench("--workload", "classify-mix", *TINY, "--trace", "1")
    assert out.returncode == 0, out.stderr
    d_untraced, d_traced = digests(out.stdout)
    assert d_untraced == d_traced
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["oracle.memo.calls"]["value"] == 0
    assert metrics["classify.self_share"]["value"] > 0


def test_seed_fixes_the_corpus():
    assert corpus(7, 50) == corpus(7, 50)
    assert corpus(7, 50) != corpus(8, 50)
    texts = dict(corpus(7, 50))
    assert all(texts[name] == text for name, text in WORKED_EXAMPLES.items())
    for text in texts.values():
        parse_fn(text)


def test_corpus_has_points_and_open_left_segments():
    texts = [t for _, t in corpus(7, 200)]
    assert any("point" in t for t in texts)
    assert any("segment (" in t for t in texts)


def test_witness_recheck_rejects_a_tampered_witness():
    f = parse_fn(WORKED_EXAMPLES["step"])
    t = parse_tnorm("product")
    v = classify(f, t).properties["conditionally_cancellative"]
    assert v.status == "no"
    op = make_op(f, t)
    assert recheck_no(op, "conditionally_cancellative", v.witness)
    x1, x2, y = v.witness
    assert f_eval(op, x1, y) != f_eval(op, Fraction(0), y)
    assert not recheck_no(op, "conditionally_cancellative", (x1, Fraction(0), y))
    assert not recheck_no(op, "conditionally_cancellative", None)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "classify-mix",
                          *TINY, "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
