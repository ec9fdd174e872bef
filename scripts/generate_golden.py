#!/usr/bin/env python3
"""Regenerate tests/golden/golden.json from the current library.

Run this only when a deliberate change moves one of the pinned values;
the diff then documents exactly what moved.  Values are written with
repr-exact floats so the comparison test can demand bitwise equality.
"""

import argparse
import json
import os
import tempfile

import numpy as np

from freqdyn.approx import enumerate_dense_polynomial
from freqdyn.cli import cmd_sigma
from freqdyn.density import build_separated_family, naturals, split
from freqdyn.density import lower_density_estimate
from freqdyn.geometry import ClosedDisc
from freqdyn.maps import ParabolicDisc
from freqdyn.orbit import iterate_bounds, iterate_convergence

DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "golden",
    "golden.json",
)


def collect() -> dict:
    sigma = {}
    for alpha, beta in ((0.0, 1.0), (0.0, 2.0), (0.5, 1.5)):
        rep = cmd_sigma(alpha, beta)
        sigma[f"alpha{alpha}_beta{beta}"] = {
            "sigma": rep.sigma,
            "c_const": rep.c_const,
        }

    horizon = 100_000
    pieces = split(naturals(horizon), 4, horizon)
    split_densities = [
        lower_density_estimate(p, horizon).lower_estimate for p in pieces
    ]

    fam = build_separated_family(10, 10_000, 8)
    family_head = {
        f"nu{nu}": [int(v) for v in fam.a_of_nu(nu).elements[:5]]
        for nu in fam.nu_values()
    }

    dense_coeffs = {
        str(l): [[float(c.real), float(c.imag)] for c in
                 np.asarray(enumerate_dense_polynomial(l).coefficients)]
        for l in range(1, 9)
    }

    rule = iterate_convergence(ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 200)
    return {
        "sigma": sigma,
        "split_densities": split_densities,
        "family_head": family_head,
        "dense_polynomials": dense_coeffs,
        "parabolic_error_200": float(iterate_bounds(rule, 1, 201)[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--path", default=DEFAULT_PATH, help="output file")
    args = parser.parse_args(argv)
    payload = collect()
    os.makedirs(os.path.dirname(args.path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(args.path), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.path)
    print(f"wrote {args.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
