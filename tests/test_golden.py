"""Seeded CLI output pinned by sha256, so a change to it cannot go unnoticed.

The digests were recorded from ``ordercdf sample --case <c> --n 1000
--seed 42`` and ``ordercdf verify --all`` before the space kinds took over
their own behaviour.  A change that alters these outputs on purpose must
say so and record the new digests here.
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
