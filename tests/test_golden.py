"""Pinned-value regression checks against tests/golden/golden.json.

The generator writes repr-exact floats, so every comparison here is
plain equality; a failure means a library change moved a published
number and scripts/generate_golden.py should be rerun deliberately.
"""

import json
import os

import numpy as np

from freqdyn.approx import enumerate_dense_polynomial
from freqdyn.cli import cmd_sigma
from freqdyn.density import (
    build_separated_family,
    lower_density_estimate,
    naturals,
    split,
)
from freqdyn.geometry import ClosedDisc
from freqdyn.maps import ParabolicDisc
from freqdyn.orbit import iterate_bounds, iterate_convergence

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden.json")


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_sigma_values_match_golden():
    want = _golden()["sigma"]
    for alpha, beta in ((0.0, 1.0), (0.0, 2.0), (0.5, 1.5)):
        rep = cmd_sigma(alpha, beta)
        entry = want[f"alpha{alpha}_beta{beta}"]
        assert rep.sigma == entry["sigma"]
        assert rep.c_const == entry["c_const"]


def test_split_densities_match_golden():
    want = _golden()["split_densities"]
    horizon = 100_000
    pieces = split(naturals(horizon), 4, horizon)
    got = [lower_density_estimate(p, horizon).lower_estimate for p in pieces]
    assert got == want


def test_family_heads_match_golden():
    want = _golden()["family_head"]
    fam = build_separated_family(10, 10_000, 8)
    for nu in fam.nu_values():
        got = [int(v) for v in fam.a_of_nu(nu).elements[:5]]
        assert got == want[f"nu{nu}"]


def test_dense_polynomials_match_golden():
    want = _golden()["dense_polynomials"]
    for l, coeffs in want.items():
        got = np.asarray(enumerate_dense_polynomial(int(l)).coefficients)
        assert [[c.real, c.imag] for c in got] == coeffs


def test_parabolic_error_matches_golden():
    want = _golden()["parabolic_error_200"]
    rule = iterate_convergence(ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 200)
    assert float(iterate_bounds(rule, 1, 201)[-1]) == want
