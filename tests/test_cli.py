import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordercdf.cli import (
    EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VERIFY,
    config_to_dict, load_config, main,
)

THREE_ATOM = {
    "space": {"kind": "finite", "labels": ["a", "b", "c"]},
    "measure": {"atoms": [{"at": "a", "mass": 0.2},
                          {"at": "b", "mass": 0.3},
                          {"at": "c", "mass": 0.5}]},
}

MIXED = {
    "space": {"kind": "real_interval", "lo": 0.0, "hi": 1.0},
    "measure": {"atoms": [{"at": 0.5, "mass": 0.5}],
                "segments": [{"interval": "[0,1]", "mass": 0.5}]},
}

OPEN = {
    "space": {"kind": "real_interval", "lo": 0.0, "hi": 1.0,
              "include_lo": False},
    "measure": {"segments": [{"interval": "(0,1]", "mass": 1.0}]},
}

INT_RANGE = {
    "space": {"kind": "int_range", "lo": 0, "hi": 4},
    "measure": {"atoms": [{"at": i, "mass": m}
                          for i, m in enumerate((0.1, 0.2, 0.3, 0.25, 0.15))]},
}

LEX_ACROSS_FIBERS = {
    "space": {"kind": "lex", "outer": ["a", "b"],
              "fibers": {"a": {"lo": 0.0, "hi": 1.0}, "b": {"lo": 0.0, "hi": 1.0}}},
    "measure": {"segments": [{"interval": "[(a,0.5),(b,0.5)]", "mass": 1.0}]},
}


def write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_eval_cdf_three_atom(tmp_path):
    path = write(tmp_path, THREE_ATOM)
    code, out = run("eval-cdf", "--config", path, "--at", "b")
    assert code == EXIT_OK
    assert out.strip() == "0.5"
    code, out = run("eval-cdf", "--config", path, "--at", "b", "--left")
    assert out.strip() == "0.2"


def test_eval_quantile_and_interval_measure(tmp_path):
    path = write(tmp_path, MIXED)
    code, out = run("eval-quantile", "--config", path, "--r", "0.6")
    assert code == EXIT_OK and out.strip() == "0.5"
    code, out = run("interval-measure", "--config", path,
                    "--interval", "[0.5,0.5]")
    assert code == EXIT_OK and out.strip() == "0.5"


def test_bad_mass_sum_names_the_field(tmp_path, capsys):
    bad = {"space": THREE_ATOM["space"],
           "measure": {"atoms": [{"at": "a", "mass": 0.4},
                                 {"at": "b", "mass": 0.5}]}}
    code, _ = run("eval-cdf", "--config", write(tmp_path, bad), "--at", "a")
    assert code == EXIT_CONFIG
    assert "total_mass" in capsys.readouterr().err


def test_atom_outside_universe_rejected(tmp_path, capsys):
    bad = {"space": THREE_ATOM["space"],
           "measure": {"atoms": [{"at": "d", "mass": 1.0}]}}
    code, _ = run("eval-cdf", "--config", write(tmp_path, bad), "--at", "a")
    assert code == EXIT_CONFIG
    assert "atoms[0]" in capsys.readouterr().err


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run("eval-cdf", "--config", str(path), "--at", "a")
    assert code == EXIT_CONFIG


def test_domain_error_exit_code(tmp_path):
    path = write(tmp_path, MIXED)
    code, _ = run("eval-quantile", "--config", path, "--r", "1.5")
    assert code == EXIT_DOMAIN
    code, _ = run("eval-cdf", "--config", path, "--at", "2.0")
    assert code == EXIT_DOMAIN


def test_sample_on_incomplete_space(tmp_path):
    path = write(tmp_path, OPEN)
    code, _ = run("sample", "--config", path, "--n", "5", "--seed", "1")
    assert code == EXIT_UNSUPPORTED


def test_sample_deterministic_files(tmp_path):
    path = write(tmp_path, MIXED)
    out1, out2 = str(tmp_path / "s1.txt"), str(tmp_path / "s2.txt")
    assert run("sample", "--config", path, "--n", "50", "--seed", "9",
               "--out", out1)[0] == EXIT_OK
    assert run("sample", "--config", path, "--n", "50", "--seed", "9",
               "--out", out2)[0] == EXIT_OK
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    header = json.loads(b1.decode().splitlines()[0])
    assert header["rng"] == "numpy:pcg64"
    assert header["seed"] == 9
    assert len(header["spec_hash"]) == 64
    assert len(b1.decode().splitlines()) == 51


def test_integrate_subcommand(tmp_path):
    path = write(tmp_path, MIXED)
    code, out = run("integrate", "--config", path, "--expr", "identity")
    assert code == EXIT_OK
    assert abs(float(out) - 0.5) < 1e-8
    code, out = run("integrate", "--config", path,
                    "--expr", "indicator:[0.5,0.5]")
    assert abs(float(out) - 0.5) < 1e-9
    code, _ = run("integrate", "--config", path, "--expr", "cosh")
    assert code == EXIT_CONFIG


def test_integrate_square_is_exact_and_takes_no_subdivisions():
    code, out = run("integrate", "--case", "mixed", "--expr", "square")
    assert code == EXIT_OK and out == "0.291666666666667\n"  # 7/24
    code, _ = run("integrate", "--case", "mixed", "--expr", "square", "--subdivisions", "8")
    assert code == EXIT_CONFIG


def test_verify_all_passes():
    code, out = run("verify", "--all")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["status"] != "fail" for r in rows)
    assert {"proposition", "instance", "status", "witness"} <= set(rows[0])


def test_verify_exit_on_failure(monkeypatch):
    import ordercdf.cli as cli

    def rigged(cdf, rng, instance="x", **kwargs):
        return [{"proposition": "p", "instance": instance,
                 "status": "fail", "witness": "w"}]

    monkeypatch.setattr(cli, "check_proposition_suite", rigged)
    code, _ = run("verify", "--case", "uniform")
    assert code == EXIT_VERIFY


def test_report_config_round_trip(tmp_path):
    path = write(tmp_path, MIXED)
    code, out = run("report", "--config", path)
    assert code == EXIT_OK
    echoed = write(tmp_path, json.loads(out), name="echo.json")
    assert config_to_dict(load_config(echoed)) == config_to_dict(load_config(path))


def test_report_bijectivity():
    code, out = run("report", "--bijectivity", "--case", "uniform")
    assert code == EXIT_OK
    row = json.loads(out)
    assert row["consistent"] and row["g_bijective"]


def test_case_and_config_both_missing():
    code, _ = run("eval-cdf", "--at", "b")
    assert code == EXIT_CONFIG


def one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert fragment in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_lex_segment_across_fibers_is_a_config_error(tmp_path, capsys):
    path = write(tmp_path, LEX_ACROSS_FIBERS)
    code, _ = run("eval-cdf", "--config", path, "--at", "(a,0.5)")
    assert code == EXIT_CONFIG
    one_line_error(capsys, "one fiber")


@pytest.mark.parametrize("interval, mass", [
    ("(0.5,2.5]", 0.2 + 0.3),   # rounds inward to [1,2]
    ("[3,10]", 0.25 + 0.15),    # clamps to [3,4]
])
def test_int_range_interval_endpoints_round_inward_and_clamp(tmp_path, interval, mass):
    path = write(tmp_path, INT_RANGE)
    code, out = run("interval-measure", "--config", path, "--interval", interval)
    assert code == EXIT_OK
    assert float(out) == pytest.approx(mass, abs=1e-12)


@pytest.mark.parametrize("interval", ["(inf,0.5]", "(0.5,-inf)"])
def test_wrong_way_infinite_endpoint_is_an_empty_interval(interval):
    code, out = run("interval-measure", "--case", "uniform", "--interval", interval)
    assert code == EXIT_OK
    assert out.strip() == "0"


@pytest.mark.parametrize("expr", ["identity", "square"])
def test_numeric_integrand_on_labels_is_a_config_error(tmp_path, capsys, expr):
    path = write(tmp_path, THREE_ATOM)
    code, _ = run("integrate", "--config", path, "--expr", expr)
    assert code == EXIT_CONFIG
    one_line_error(capsys, "needs numeric points")


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for module, argv, printed in [
            ("ordercdf", ["eval-cdf", "--case", "three-atom", "--at", "b"], "0.5"),
            ("ordercdf.cli", ["interval-measure", "--case", "uniform", "--interval", "[0,1]"],
             "1")]:
        done = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.strip() == printed


REAL = {"kind": "real_interval", "lo": 0.0, "hi": 1.0}
LEX = {"kind": "lex", "outer": ["a"], "fibers": {"a": {"lo": 0.0, "hi": 1.0}}}
INFINITY = float("inf")


def _space(space, at=0.5):
    return {"space": space, "measure": {"atoms": [{"at": at, "mass": 1.0}]}}


def _atom(entry):
    return {"space": THREE_ATOM["space"], "measure": {"atoms": [entry]}}


def _segment(entry):
    return {"space": REAL, "measure": {"segments": [entry]}}


def _row(name, config, prefix, code=EXIT_CONFIG):
    return pytest.param(config, code, "config error: " + prefix, id=name)


#: (config, exit code, start of the one line on stderr)
BAD_CONFIGS = [
    _row("atom-mass-string", _atom({"at": "a", "mass": "1"}),
         "measure.atoms[0].mass: must be a finite number"),
    _row("atom-mass-missing", _atom({"at": "a"}),
         "measure.atoms[0].mass: must be a finite number, got None"),
    _row("atom-mass-bool", _atom({"at": "a", "mass": True}),
         "measure.atoms[0].mass: must be a finite number"),
    _row("atom-mass-inf", _atom({"at": "a", "mass": INFINITY}),
         "measure.atoms[0].mass: must be a finite number"),
    _row("atom-mass-huge-int", _atom({"at": "a", "mass": 10 ** 400}),
         "measure.atoms[0].mass: must be a finite number"),
    _row("atom-mass-nan", _atom({"at": "a", "mass": float("nan")}),
         "measure.atoms[0].mass: must be a finite number"),
    _row("atom-not-object", _atom("a"), "measure.atoms[0]: must be an object"),
    _row("segment-mass-string", _segment({"interval": "[0,1]", "mass": "1"}),
         "measure.segments[0].mass: must be a finite number"),
    _row("segment-interval-number", _segment({"interval": 1, "mass": 1.0}),
         "measure.segments[0]: bad interval syntax"),
    _row("real-hi-inf", _space(dict(REAL, hi=INFINITY)), "space.hi: must be a finite number"),
    _row("real-lo-string", _space(dict(REAL, lo="0")), "space.lo: must be a finite number"),
    _row("real-include-string", _space(dict(REAL, include_lo="no")),
         "space.include_lo/include_hi: must be true or false"),
    _row("lex-fiber-hi-inf", _space(dict(LEX, fibers={"a": {"lo": 0.0, "hi": INFINITY}}),
                                    "(a,0.5)"),
         "space.fibers.a.hi: must be a finite number"),
    _row("lex-outer-string", _space(dict(LEX, outer="a"), "(a,0.5)"),
         "space.outer: must be a list of strings"),
    _row("finite-labels-string", _space({"kind": "finite", "labels": "ab"}, "a"),
         "space.labels: must be a list of strings"),
    _row("int-hi-inf", _space({"kind": "int_range", "lo": 0, "hi": INFINITY}, 0),
         "space.hi: must be a finite integer"),
    _row("int-hi-fraction", _space({"kind": "int_range", "lo": 0, "hi": 2.5}, 0),
         "space.hi: must be a finite integer"),
    _row("unknown-top-level-field", dict(_space(REAL), bogus=1),
         "config root: unknown field 'bogus'"),
    _row("unknown-space-field", _space(dict(REAL, hj=2)), "space: unknown field 'hj'"),
    _row("unknown-measure-field", {"space": REAL, "measure": {
        "atoms": [{"at": 0.5, "mass": 1.0}], "extra": 1}}, "measure: unknown field 'extra'"),
    _row("unknown-segment-field", _segment({"interval": "[0,1]", "mass": 1.0, "mas": 2}),
         "measure.segments[0]: unknown field 'mas'"),
    _row("unknown-atom-field", _atom({"at": "a", "mass": 1.0, "weight": 1}),
         "measure.atoms[0]: unknown field 'weight'"),
    _row("unknown-lex-fiber-label", _space(dict(LEX, fibers={"a": {"lo": 0.0, "hi": 1.0},
                                                             "b": {"lo": 0.0, "hi": 1.0}}),
                                           "(a,0.5)"),
         "space.fibers: unknown field 'b'"),
    _row("unknown-lex-fiber-field", _space(dict(LEX, fibers={"a": {"lo": 0.0, "hi": 1.0,
                                                                   "kind": "real_interval"}}),
                                           "(a,0.5)"),
         "space.fibers.a: unknown field 'kind'"),
]


@pytest.mark.parametrize("config, code, prefix", BAD_CONFIGS)
def test_bad_config_table(tmp_path, capsys, config, code, prefix):
    path = write(tmp_path, config)
    assert run("report", "--config", path)[0] == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
