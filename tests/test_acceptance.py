"""End-to-end acceptance checks.

One test per numbered property.  Each prints a single PASS or FAIL
line with its runtime, so a verbose run reads as a checklist; every
threshold is pinned here rather than imported, to keep the gate
independent of library constants.
"""

import math
import time

import numpy as np

from freqdyn import density, geometry, orbit
from freqdyn.approx import (
    Polynomial,
    assemble_dense_target,
    assemble_existence_target,
    assemble_spaceable_target,
    build_span_basis,
    double_split,
    enumerate_dense_polynomial,
    fit_on_compacts,
    l2_circle_norm,
    l2_distance_on_circle,
)
from freqdyn.cli import _disc_mesh, cmd_sigma
from freqdyn.density import build_separated_family, naturals, split
from freqdyn.geometry import (
    ClosedDisc,
    chordal_distance,
    sample_grid,
    sector_exhaustion,
    whole_plane_exhaustion,
)
from freqdyn.maps import (
    CAYLEY,
    CAYLEY_INVERSE,
    HalfPlaneShift,
    Identity,
    ParabolicDisc,
    RootShift,
    Similarity,
    apply,
    cayley_conjugate,
    disc_to_slit,
    raw_inverse,
    slit_to_disc,
)
from freqdyn.orbit import combination_scan, iterate_bounds, iterate_convergence
from freqdyn.runaway import (
    RunawayConfig,
    build_carleman_truncation,
    check_strong_runaway,
    check_weak_runaway,
    powers_of_two_schedule,
)


def _report(tag: str, budget: float, started: float, checks) -> None:
    elapsed = time.perf_counter() - started
    failing = [name for name, ok in checks if not ok]
    if elapsed >= budget:
        failing.append(f"runtime {elapsed:.2f}s over the {budget:.0f}s budget")
    verdict = "PASS" if not failing else "FAIL"
    line = f"[{tag}] {verdict} ({elapsed:.2f}s / {budget:.0f}s)"
    if failing:
        line += " failing: " + "; ".join(failing)
    print(line)
    assert not failing, line


def first_monotone_tail(errors, tol=1e-12) -> int:
    """Least index from which the stored bounds are non-increasing within
    tol; a NaN step also ends the tail."""
    rises = np.flatnonzero(~(errors[1:] <= errors[:-1] + tol))
    return int(rises[-1]) + 1 if rises.size else 0


def test_criterion_01_density_split():
    started = time.perf_counter()
    horizon = 100_000
    pieces = split(naturals(horizon), 4, horizon)
    merged = np.sort(np.concatenate([p.elements for p in pieces]))
    targets = (0.5, 0.25, 0.125, 0.125)
    checks = [
        (
            "partition exact",
            merged.size == horizon
            and bool(np.array_equal(merged, np.arange(1, horizon + 1))),
        )
    ]
    for j, (piece, want) in enumerate(zip(pieces, targets), start=1):
        lo = density.lower_density_estimate(piece, horizon).lower_estimate
        checks.append((f"part {j} density {lo:.4f} ~ {want}", abs(lo - want) <= 0.01))
    _report("criterion 01 density split", 1.0, started, checks)


def test_criterion_02_separated_family():
    started = time.perf_counter()
    fam = build_separated_family(3, 10_000, 8)
    rep = density.verify_separated_family(fam)
    checks = [("verifier passes", rep.passed)]
    for label in fam.labels():
        piece = fam.set_for(*label)
        lo = density.lower_density_estimate(piece, 10_000).lower_estimate
        checks.append((f"class {label} density {lo:.4f} > 0.005", lo > 0.005))
    _report("criterion 02 separated family", 5.0, started, checks)


def test_criterion_03_slit_plane_constants():
    started = time.perf_counter()
    unit = cmd_sigma(0.0, 1.0)
    wide = cmd_sigma(0.0, 2.0)
    checks = [
        ("sigma(0,1) = 1 within 1e-9", abs(unit.sigma - 1.0) <= 1e-9),
        ("C(0,1) = 0.25", unit.c_const == 0.25),
        ("sigma(0,2) = 1 within 1e-6", abs(wide.sigma - 1.0) <= 1e-6),
    ]
    fam = build_separated_family(6, 10_000, 8)
    exh = sector_exhaustion(0.25, 0.0, 1.0, 1)
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: RootShift(0.0, 1.0, 1, n),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=10_000,
        nu_max=3,
    )
    rep = check_strong_runaway(cfg)
    checks.append(("P1 densities positive", rep.p1_ok))
    checks.append(("P2 islands separated", rep.p2_ok))
    checks.append(("P3 probes clean", rep.p3_ok))
    centers = np.array([i.image_bound.center for i in rep.islands])
    radii = np.array([i.image_bound.radius for i in rep.islands])
    ii, jj = np.triu_indices(len(rep.islands), k=1)
    gaps = np.abs(centers[ii] - centers[jj]) - (radii[ii] + radii[jj])
    checks.append(
        (
            f"disc inequality on all {gaps.size} pairs (min gap {gaps.min():.3f})",
            bool(np.all(gaps > 0.0)),
        )
    )
    _report("criterion 03 slit plane constants", 30.0, started, checks)


def test_criterion_04_powers_of_two_control():
    started = time.perf_counter()
    schedule = powers_of_two_schedule(Similarity(1.0, 1.0))
    weak = check_weak_runaway(schedule, ClosedDisc(0.0, 1.0), 100_000)
    est = weak.density.lower_estimate
    checks = [(f"weak escape density {est:.5f} < 0.01", est < 0.01)]
    fam = build_separated_family(3, 2000, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=schedule,
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=2000,
        nu_max=2,
    )
    rep = check_strong_runaway(cfg)
    checks.append(("strong check fails P2", not rep.p2_ok))
    _report("criterion 04 powers of two control", 10.0, started, checks)


def test_criterion_05_existence_pipeline():
    started = time.perf_counter()
    horizon = 2000
    fam = build_separated_family(3, horizon, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=horizon,
        nu_max=2,
    )
    tr = build_carleman_truncation(cfg, bases=0, max_islands=4)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 1, horizon) for nu in (1, 2)}
    target = assemble_existence_target(tr, splits)
    cand = fit_on_compacts(target)
    checks = [
        (f"{len(tr.islands)} islands kept (cap 4)", len(tr.islands) <= 4),
        ("fit certified", cand.status == "PASS"),
    ]
    for idx, cert in enumerate(cand.certificates):
        checks.append(
            (
                f"piece {idx} error {cert.achieved:.2e} < envelope {cert.envelope:.2e}",
                cert.achieved < cert.envelope,
            )
        )
    delta = 2.0 * max(p.tau for p in target.pieces)
    scan_horizon = max(int(i.n) for i in tr.islands)
    pairs = [
        (nu, l, splits[nu][(l, 1)])
        for nu in (1, 2)
        for l in (1, 2)
        if np.any(splits[nu][(l, 1)].elements <= scan_horizon)
    ]
    rep = orbit.scan(
        cand.fn,
        lambda n: Similarity(1.0, float(n)),
        exh,
        enumerate_dense_polynomial,
        delta,
        scan_horizon,
        pairs,
    )
    for e in rep.entries:
        designed = e.designed.elements[e.designed.elements <= scan_horizon]
        tail = designed[designed > e.burn_in]
        hits = set(int(n) for n in e.hits.elements)
        checks.append(
            (
                f"block ({e.nu},{e.l}) designed tail hits at 2x envelope",
                all(int(n) in hits for n in tail),
            )
        )
        checks.append(
            (f"block ({e.nu},{e.l}) hit density {e.hit_rate:.3f} > 0", e.hit_rate > 0.0)
        )
    _report("criterion 05 existence pipeline", 60.0, started, checks)


def test_criterion_06_spaceable_basis():
    started = time.perf_counter()
    horizon = 2000
    fam = build_separated_family(3, horizon, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=horizon,
        nu_max=2,
    )
    tr = build_carleman_truncation(cfg, bases=1, max_islands=6)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 3, horizon) for nu in (1, 2)}
    members = []
    lead_tau = 0.0
    for mu in (1, 2, 3):
        target = assemble_spaceable_target(mu, tr, splits)
        members.append(fit_on_compacts(target))
        if mu == 1:
            lead_tau = max(p.tau for p in target.pieces)
    basis = build_span_basis(members, (1, 2, 3), "spaceable")
    perturbation = sum(
        l2_distance_on_circle(m.fn, Polynomial.monomial(mu))
        for mu, m in zip((1, 2, 3), members)
    )
    checks = [
        (f"perturbation sum {perturbation:.4f} < 1/2", perturbation < 0.5),
        (
            f"Gram lambda_min {basis.gram_lambda_min:.4f} >= 0.2",
            basis.gram_lambda_min >= 0.2,
        ),
    ]
    scan_horizon = max(int(i.n) for i in tr.islands)
    pairs = [
        (nu, l, splits[nu][(l, 1)])
        for nu in (1, 2)
        for l in (1, 2)
        if np.any(splits[nu][(l, 1)].elements <= scan_horizon)
    ]
    rep = combination_scan(
        basis,
        (1.0, 0.1, 0.01),
        lambda n: Similarity(1.0, float(n)),
        exh,
        enumerate_dense_polynomial,
        2.0 * lead_tau,
        scan_horizon,
        pairs,
    )
    checks.append(("combination scan passes", rep.passed))
    # certified tolerance of the leading member at each retained island
    envelope_at = {
        int(isl.n): members[0].certificates[idx + 1].envelope
        for idx, isl in enumerate(tr.islands)
    }
    bound_const = 1.0 + math.sqrt(basis.coeff_bound)
    sp2_ok = True
    worst = 0.0
    for e in rep.entries:
        designed = e.designed.elements[e.designed.elements <= scan_horizon]
        for n in designed[designed > e.burn_in]:
            tau = envelope_at[int(n)]
            ratio = e.errors[int(n) - 1] / (bound_const * tau)
            worst = max(worst, ratio)
            sp2_ok = sp2_ok and e.errors[int(n) - 1] <= bound_const * tau
    checks.append(
        (f"errors within (1+sqrt(H)) tau (worst ratio {worst:.3f})", sp2_ok)
    )
    _report("criterion 06 spaceable basis", 120.0, started, checks)


def test_criterion_07_dense_members():
    started = time.perf_counter()
    horizon = 10_000
    fam = build_separated_family(10, horizon, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=horizon,
        nu_max=4,
    )
    tr = build_carleman_truncation(cfg, bases=4, max_islands=6)
    levels = sorted({int(v) for v in fam.nu_values() if v <= 4})
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 4, horizon) for nu in levels}
    checks = []
    for mu in (1, 2, 3):
        target = assemble_dense_target(mu, tr, splits)
        cand = fit_on_compacts(target)
        base = cand.certificates[0]
        checks.append((f"member {mu} certified", cand.status == "PASS"))
        checks.append(
            (
                f"member {mu} base error {base.achieved:.3e} < {1.0 / mu:.3e}",
                base.achieved < 1.0 / mu,
            )
        )
        # independent measurement on the verification compact
        grid = sample_grid(tr.bases[mu], 3)
        direct = float(
            np.max(
                np.abs(
                    cand.fn.evaluate(grid)
                    - enumerate_dense_polynomial(mu + 1).evaluate(grid)
                )
            )
        )
        checks.append(
            (f"member {mu} grid error {direct:.3e} < {1.0 / mu:.3e}", direct < 1.0 / mu)
        )
        # the base target is never the zero polynomial, and the member
        # stays within 1/mu of it, so the member is no zero function
        base_poly = target.pieces[0].spec
        checks.append((f"member {mu} base target nonzero", np.any(base_poly.coefficients)))
        checks.append((f"member {mu} nonzero", np.any(cand.fn.coefficients)))
    _report("criterion 07 dense members", 60.0, started, checks)


def test_criterion_08_conjugation_identities():
    started = time.perf_counter()
    mesh = _disc_mesh()
    checks = [(f"grid has {mesh.size} points", mesh.size == 1000)]
    w = disc_to_slit(mesh)
    worst_slit = 0.0
    worst_mod = 0.0
    for n in (1, 2, 5, 10, 100):
        inner = RootShift(0.0, 1.0, 1, n)
        # the conjugate slit_to_disc o inner o disc_to_slit, at the points
        # slit_to_disc(w) and on the mesh, where it takes the values rhs
        lhs = slit_to_disc(apply(inner, disc_to_slit(slit_to_disc(w))))
        rhs = slit_to_disc(apply(inner, w))
        worst_slit = max(worst_slit, float(np.max(np.abs(lhs - rhs))))
        worst_mod = max(worst_mod, float(np.max(np.abs(rhs))))
    checks.append((f"slit conjugation residual {worst_slit:.2e}", worst_slit < 1e-10))
    worst_par = 0.0
    worst_fp = 0.0
    for n in (1, 2, 5, 10, 100):
        direct = ParabolicDisc(1.0, 1.0, n)
        # the Cayley chain, map by map: into the half plane, shift, back
        chain = apply(CAYLEY_INVERSE, apply(HalfPlaneShift(1.0, 1.0, n), apply(CAYLEY, mesh)))
        conj = cayley_conjugate(HalfPlaneShift(1.0, 1.0, n))
        vals = apply(direct, mesh)
        worst_par = max(worst_par, float(np.max(np.abs(vals - chain))))
        worst_par = max(worst_par, float(np.max(np.abs(vals - apply(conj, mesh)))))
        worst_par = max(worst_par, float(np.max(np.abs(raw_inverse(conj, vals) - mesh))))
        worst_mod = max(worst_mod, float(np.max(np.abs(vals))))
        s_par = 1.0 * float(n) ** 1.0
        fixed = 1.0 + 2.0 * (1.0 - 1.0) / (2.0 - 1j * s_par * (1.0 - 1.0))
        worst_fp = max(worst_fp, abs(fixed - 1.0))
    checks.append(
        (f"parabolic conjugation residual {worst_par:.2e}", worst_par < 1e-10)
    )
    checks.append((f"fixed point error {worst_fp:.2e} <= 1e-12", worst_fp <= 1e-12))
    checks.append((f"max modulus {worst_mod:.6f} < 1", worst_mod < 1.0))
    _report("criterion 08 conjugation identities", 5.0, started, checks)


def test_criterion_09_parabolic_convergence():
    started = time.perf_counter()
    region = ClosedDisc(0.0, 0.5)
    errors = iterate_bounds(
        iterate_convergence(ParabolicDisc(1.0, 1.0, 1), region, 1.0 + 0.0j, 200), 1, 201
    )
    final = float(errors[-1])
    tail = first_monotone_tail(errors)
    checks = [
        ("every error bound is finite", bool(np.all(np.isfinite(errors)))),
        (f"error {final:.4f} < 0.1 at n = 200", final < 0.1),
        (f"monotone from step {tail + 1}", tail <= 150),
    ]
    control = iterate_bounds(
        iterate_convergence(Identity(geometry.Domain.unit_disc()), region, 1.0 + 0.0j, 50),
        1,
        51,
    )
    diffs = np.diff(control)
    checks.append(
        (
            "identity control never decreases",
            bool(np.all(diffs >= -1e-12)) and float(control[0]) > 0.0,
        )
    )
    _report("criterion 09 parabolic convergence", 5.0, started, checks)


def test_criterion_10_numerical_bedrock():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    checks = []
    worst_parseval = 0.0
    theta = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096
    circle = np.exp(1j * theta)
    for deg in (0, 1, 7, 50, 200):
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = Polynomial(coeffs)
        quad = math.sqrt(float(np.mean(np.abs(p.evaluate(circle)) ** 2)))
        worst_parseval = max(worst_parseval, abs(l2_circle_norm(p) - quad))
    checks.append(
        (f"Parseval vs quadrature {worst_parseval:.2e} <= 1e-10", worst_parseval <= 1e-10)
    )

    triples = rng.standard_normal((3, 10_000)) * 3.0 + 1j * rng.standard_normal(
        (3, 10_000)
    ) * 3.0
    z, w, v = triples
    dzw = chordal_distance(z, w)
    dwz = chordal_distance(w, z)
    dzv = chordal_distance(z, v)
    dwv = chordal_distance(w, v)
    checks.append(("chordal nonnegative", bool(np.all(dzw >= 0.0))))
    checks.append(
        ("chordal zero on diagonal", float(np.max(chordal_distance(z, z))) == 0.0)
    )
    checks.append(
        (f"chordal symmetric to {np.max(np.abs(dzw - dwz)):.2e}",
         bool(np.all(np.abs(dzw - dwz) <= 1e-14)))
    )
    slack = np.max(dzv - (dzw + dwv))
    checks.append(
        (f"chordal triangle inequality (max excess {slack:.2e})",
         bool(np.all(dzv <= dzw + dwv + 1e-12)))
    )

    mesh = _disc_mesh()
    src = disc_to_slit(mesh)
    fw = slit_to_disc(src)
    worst_rt = float(np.max(np.abs(disc_to_slit(fw) - src)))
    worst_rt = max(worst_rt, float(np.max(np.abs(slit_to_disc(disc_to_slit(fw)) - fw))))
    for m, pts in (
        (CAYLEY, mesh),
        (CAYLEY_INVERSE, apply(CAYLEY, mesh)),
        (Similarity(0.5 + 0.25j, 3.0 - 1.0j), mesh * 4.0),
        (RootShift(0.0, 1.0, 1, 7), (mesh * 2.0) + 3.0),
        (ParabolicDisc(1.0, 1.0, 3), mesh),
    ):
        image = apply(m, pts)
        worst_rt = max(worst_rt, float(np.max(np.abs(raw_inverse(m, image) - pts))))
    checks.append((f"map round trips {worst_rt:.2e} < 1e-10", worst_rt < 1e-10))
    _report("criterion 10 numerical bedrock", 10.0, started, checks)
