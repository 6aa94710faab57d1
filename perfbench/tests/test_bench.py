"""Self-tests of the benchmark: inputs, checks, metric names, CLI byte identity.

Run with ``python3 -m pytest perfbench/tests``.
"""
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ordercdf.cdf import UniquenessVerdict
from ordercdf.cli import main as cli_main

from perfbench import checks, inputs, layers, ops, run
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _fingerprint(pool):
    return json.dumps([(it.config, it.resplit, [repr(p) for p in it.points], it.levels,
                        [repr(iv) for iv in it.intervals], it.union_text, it.integrand)
                       for it in pool])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    make = inputs.POOLS[workload]
    assert _fingerprint(make(7)) == _fingerprint(make(7))
    assert _fingerprint(make(7)) != _fingerprint(make(8))


def _item(pool, name):
    return next(it for it in pool if it.name.startswith(name))


def _names(failures):
    return {name for name, _ in failures}


def test_sample_check_catches_a_draw_outside_the_space():
    item = _item(inputs.sample_pool(3), "real_interval-8")
    out = {"errors": []}
    ops.sample_op(item, 11, Tracer(), out, n=2000)
    assert checks.check("sample", item, out) == []
    out["points"][5] = 1.5
    assert _names(checks.check("sample", item, out)) == {"draw inside the space"}


def test_sample_check_catches_a_wrong_law():
    item = _item(inputs.sample_pool(3), "int_range-8")
    out = {"errors": []}
    ops.sample_op(item, 11, Tracer(), out, n=2000)
    out["points"] = [item.atoms[0][0]] * len(out["points"])
    assert _names(checks.check("sample", item, out)) == {"KS distance inside the DKW band"}


def test_query_check_catches_F_off_by_1e_6():
    item = _item(inputs.query_pool(3), "int_range-16")
    out = {"errors": []}
    ops.query_op(item, 0, Tracer(), out)
    assert checks.check("query", item, out) == []
    out["F"][400] += 1e-6
    found = _names(checks.check("query", item, out))
    assert "F vs reference" in found and found <= {"F vs reference", "F vs measure_of"}


def test_query_check_catches_a_wrong_integral():
    item = _item(inputs.query_pool(3), "int_range-16")
    out = {"errors": []}
    ops.query_op(item, 0, Tracer(), out)
    assert checks.check("query", item, out) == []
    out["integral"] += 1e-6 * max(1.0, abs(out["integral"]))
    assert _names(checks.check("query", item, out)) == {"integrate vs exact"}


class _OneUlpHigh:
    """A pseudo-inverse whose answers overshoot by one ulp."""

    def __init__(self, gi):
        self.gi = gi

    def try_eval(self, r):
        return math.nextafter(self.gi.try_eval(r), math.inf)


def test_known_defect_probe_catches_a_one_ulp_overshoot():
    item = _item(inputs.query_pool(3), "real_interval-16")
    out = {"errors": []}
    ops.query_op(item, 0, Tracer(), out)
    ref = checks.Reference(item)
    out["gi"] = _OneUlpHigh(out["gi"])
    assert "Galois adjunction at breakpoint levels" in _names(
        checks.known_defect("query", item, out, ref))
    assert checks.check("query", item, out, ref) == []   # the probe never fails the op


def test_verify_measures_are_exact_and_carry_a_probe():
    for item in inputs.verify_pool(4):
        if item.name in inputs.INSTANCE_NAMES:
            continue
        masses = [m for _, m in item.atoms] + [seg[4] for seg in item.segments]
        assert all((m * inputs.DYADIC).is_integer() for m in masses)
        assert sum(masses) == 1.0
        for p, _ in item.atoms:
            assert not any(lo <= p <= hi for lo, hi, *_ in item.segments), (item.name, p)
        assert item.probe.kind == item.kind and item.probe.pieces == item.pieces


def test_verify_check_catches_a_wrong_verdict():
    item = _item(inputs.verify_pool(3), "uniform")
    out = {"errors": []}
    ops.verify_op(item, 0, Tracer(), out)
    assert checks.check("verify", item, out) == []
    out["uniqueness"] = UniquenessVerdict(False, None, "planted")
    assert _names(checks.check("verify", item, out)) == {"split measure is the same measure"}
    out["uniqueness"] = UniquenessVerdict(True, None, "")
    out["rows"][0] = dict(out["rows"][0], status="fail")
    assert len(checks.check("verify", item, out)) == 1


def test_a_raising_call_fails_the_op():
    item = _item(inputs.verify_pool(3), "three-atom")
    item.config = dict(item.config, measure={"atoms": [], "segments": []})
    out = ops.run_op("verify", item, 0, Tracer())
    assert _names(checks.check("verify", item, out)) == {"op raised"}


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.METRICS
    for name, unit in list(e2e.items()) + layers.METRICS:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
    assert len({name for name, _ in layers.METRICS}) == len(layers.METRICS)


def _cli_sample(tmp_path, item, seed, n):
    if item.name in inputs.INSTANCE_NAMES:
        source = ["--case", item.name]
    else:
        path = tmp_path / f"{item.name}.json"
        path.write_text(json.dumps(item.config))
        source = ["--config", str(path)]
    buf = io.StringIO()
    assert cli_main(["sample", *source, "--n", str(n), "--seed", str(seed)], out=buf) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", ["three-atom", "int_range-12", "real_interval-16", "lex-mixed"])
def test_sample_text_is_the_cli_output(tmp_path, name):
    item = _item(inputs.sample_pool(5), name)
    out = {"errors": []}
    ops.sample_op(item, 42, Tracer(), out, n=300)
    assert out["text"] == _cli_sample(tmp_path, item, 42, 300)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sample",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
