#!/usr/bin/env python3
"""Run every shipped example config through the command line interface.

Each run writes under its own output root so repeated builds never
overwrite one another; the stored-candidate scan is pointed at the
existence build it consumes.  Six runs patch a shipped config: example1
at a radius constant large enough for its orbit scan to run, the
spaceable config built as a mixed basis, strong runaway of parabolic
maps on the unit disc (islands bounded by Moebius image discs), the
existence build of half-plane shifts (island budgets from the
spherical-cap envelope), and two runs expected to fail with a witness:
example4 with cubic frequencies (pairwise witness) and strong runaway on
the powers-of-two schedule (P2 disc witness).  The weak runaway example
is expected to fail by construction.  A run that exits with its expected
code counts as success here.

To compare two versions of the package with ``diff -r``, give both runs
the same ``--out`` path and move the first tree aside before the second
run: the stored-candidate scan names its candidate under that root, and
the path enters the config hash recorded in ``scan/summary.txt``.
"""

import argparse
import os

from freqdyn.cli import main as freqdyn_main

# (label, subcommand, config file, overrides, expected exit code); "{out}"
# in an override stands for the --out root
RUNS = (
    ("sigma", "sigma", "sigma.ini", (), 0),
    ("split", "split", "split.ini", (), 0),
    ("density", "density", "density.ini", (), 0),
    ("sepfamily", "sepfamily", "sepfamily.ini", (), 0),
    ("runaway-strong", "runaway", "runaway_strong.ini", (), 0),
    ("runaway-weak", "runaway", "runaway_weak.ini", (), 1),
    (
        "runaway-p2",
        "runaway",
        "runaway_strong.ini",
        ("maps.schedule=powers_of_two",),
        1,
    ),
    (
        "runaway-disc",
        "runaway",
        "runaway_strong.ini",
        ("domain.kind=unit_disc", "maps.family=parabolic_disc"),
        0,
    ),
    ("example1", "example1", "example1.ini", (), 0),
    ("example1-scan", "example1", "example1.ini", ("maps.c=1.0",), 0),
    ("example2", "example2", "example2.ini", (), 0),
    ("example3", "example3", "example3.ini", (), 0),
    ("example4", "example4", "example4.ini", (), 0),
    ("example4-pairwise", "example4", "example4.ini", ("maps.omega_power=3",), 1),
    ("example5", "example5", "example5.ini", (), 0),
    ("existence", "build_fhc", "existence.ini", (), 0),
    (
        "existence-half-plane",
        "build_fhc",
        "existence.ini",
        ("domain.kind=right_half_plane", "maps.family=half_plane_shift"),
        0,
    ),
    ("islands", "build_fhc", "islands.ini", (), 0),
    (
        "scan",
        "scan",
        "scan.ini",
        ("scan.candidate={out}/existence/build_fhc/candidate.json",),
        0,
    ),
    ("spaceable", "build_fhc", "spaceable.ini", (), 0),
    ("mixed", "build_fhc", "spaceable.ini", ("build.kind=mixed",), 0),
    ("dense", "build_fhc", "dense.ini", (), 0),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="out/examples", help="root directory for artifacts"
    )
    parser.add_argument(
        "--configs", default="configs", help="directory holding the .ini files"
    )
    args = parser.parse_args(argv)

    mismatches = []
    for label, command, config, overrides, expected in RUNS:
        os.environ["FREQDYN_OUT"] = os.path.join(args.out, label)
        argv_run = [command, os.path.join(args.configs, config)]
        for item in overrides:
            argv_run += ["--override", item.format(out=args.out)]
        code = freqdyn_main(argv_run)
        note = "as expected" if code == expected else f"expected {expected}"
        print(f"== {label}: exit {code} ({note})")
        if code != expected:
            mismatches.append(label)
    os.environ.pop("FREQDYN_OUT", None)

    if mismatches:
        print("unexpected exits: " + ", ".join(mismatches))
        return 1
    print(f"all {len(RUNS)} example runs behaved as expected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
