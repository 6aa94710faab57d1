"""Seeded CLI output pinned by sha256, so a change to it cannot go unnoticed.

The digests were recorded from ``ordercdf sample --case <c> --n 1000
--seed 42`` and ``ordercdf verify --all`` before the space kinds took over
their own behaviour.  The printed ``ordercdf integrate`` outputs were
recorded when the Gauss-Legendre rule replaced the midpoint loop, and each
is also checked against its closed form.  A change that alters these
outputs on purpose must say so and record the new values here.
"""
import hashlib
import io

import pytest

from ordercdf.cli import EXIT_OK, main

SAMPLE_SHA256 = {
    "three-atom": "47bc2cbaa4d57e71613ebfb71b08efee2cb2016b6cbfd339329f7934168b6a95",
    "uniform": "1a65b21396002a463b77c74ab284fa5f91c6182c5b10401e162b982d9682fb83",
    "mixed": "a4139cdfdf7f66d2b11443ac47506be9acb8082a8cb9fe63749a42a4414db689",
    "gapped": "b0bb74e4c9b594623e29dda53acdee6feb8c1842b8fddef292671c7b6ca654e1",
    "lex-mixed": "73bb77a9e9e235071491e29aedca20013fe108b126a6cffbe8772a22ebf63de2",
}

VERIFY_ALL_SHA256 = "fff6cf82ddba725431001feb203d33062e9d98131151a814c1a3b7f16508b5b7"


def digest(*argv):
    out = io.StringIO()
    assert main(list(argv), out=out) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SAMPLE_SHA256))
def test_seeded_sample_output_is_unchanged(case):
    assert digest("sample", "--case", case, "--n", "1000", "--seed", "42") \
        == SAMPLE_SHA256[case]


def test_verify_all_output_is_unchanged():
    assert digest("verify", "--all") == VERIFY_ALL_SHA256


#: (case, expr) -> (printed output of ``ordercdf integrate``, closed form)
INTEGRATE_OUTPUT = {
    ("three-atom", "indicator:[b,c]"): ("0.8", 0.3 + 0.5),
    ("uniform", "identity"): ("0.5", 1 / 2),
    ("uniform", "square"): ("0.333333333333333", 1 / 3),
    ("uniform", "indicator:(0.2,0.7]"): ("0.5", 0.5),
    ("mixed", "identity"): ("0.5", 0.5 * 0.5 + 0.5 * 0.5),
    ("mixed", "square"): ("0.291666666666667", 0.5 * 0.25 + 0.5 / 3),
    ("mixed", "indicator:[0.25,0.5]"): ("0.625", 0.5 * 0.25 + 0.5),
    ("gapped", "identity"): ("0.5", 0.5 * 0.2 + 0.5 * 0.8),
    ("gapped", "square"): ("0.353333333333333",
                           0.5 * 0.4 ** 2 / 3 + 0.5 * (1 - 0.6 ** 3) / (3 * 0.4)),
    ("gapped", "indicator:[0.3,0.7)"): ("0.25", 0.5 * 0.25 + 0.5 * 0.25),
    ("lex-mixed", "indicator:[(0,0.5),(1,0.25)]"): ("0.45", 0.5 * 0.5 + 0.1 + 0.4 * 0.25),
}


@pytest.mark.parametrize("case, expr", sorted(INTEGRATE_OUTPUT))
def test_integrate_output_is_unchanged_and_exact(case, expr):
    out = io.StringIO()
    assert main(["integrate", "--case", case, "--expr", expr], out=out) == EXIT_OK
    printed, exact = INTEGRATE_OUTPUT[case, expr]
    assert out.getvalue() == printed + "\n"
    assert abs(float(printed) - exact) <= 1e-12
