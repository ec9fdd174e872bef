"""Tests for runaway checkers and finite truncations."""

import math
import tracemalloc

import numpy as np
import pytest

from freqdyn import runaway
from freqdyn.density import IndexSet, arithmetic_progression, build_separated_family
from freqdyn.geometry import (
    AnnularSector,
    ClosedDisc,
    Domain,
    disc_pairs,
    disjointness,
    right_half_plane_exhaustion,
    sample_grid,
    whole_plane_exhaustion,
)
from freqdyn.maps import (
    HalfPlaneShift,
    Identity,
    Iterated,
    ParabolicDisc,
    RootShift,
    Similarity,
    apply,
    image_enclosing_disc,
)
from freqdyn.runaway import (
    HorizonExhausted,
    RunawayConfig,
    build_carleman_truncation,
    check_strong_runaway,
    check_weak_runaway,
    collect_islands,
    powers_of_two_schedule,
)

WP = Domain.whole_plane()


def _translations(n):
    return Similarity(1.0, float(n))


def _vertical(n):
    return Similarity(1.0, 1j * float(n))


# ---------------------------------------------------------------------------
# Weak runaway


def test_weak_runaway_translations():
    rep = check_weak_runaway(_translations, ClosedDisc(0.0, 1.0), horizon=1000)
    assert list(rep.escape_set)[:3] == [3, 4, 5]
    assert len(rep.escape_set) == 998
    assert rep.density.lower_estimate >= 0.99


def test_weak_runaway_identity_is_exactly_zero():
    rep = check_weak_runaway(
        lambda n: Identity(WP), ClosedDisc(0.0, 1.0), horizon=300
    )
    assert len(rep.escape_set) == 0
    assert rep.density.lower_estimate == 0.0
    assert rep.density.upper_estimate == 0.0


def test_weak_runaway_negative_control_powers_of_two():
    schedule = powers_of_two_schedule(ParabolicDisc(1.0, 1.0, 1))
    rep = check_weak_runaway(schedule, ClosedDisc(0.0, 0.5), horizon=10_000)
    for n in rep.escape_set:
        assert n & (n - 1) == 0, "escape outside the designed subsequence"
    assert len(rep.escape_set) >= 5
    assert rep.density.upper_estimate < 0.01


def test_powers_of_two_schedule_structure():
    base = ParabolicDisc(1.0, 1.0, 1)
    schedule = powers_of_two_schedule(base)
    assert isinstance(schedule(1), Identity)
    assert schedule(2) == Iterated(base, 1)
    assert schedule(8) == Iterated(base, 3)
    assert isinstance(schedule(12), Identity)


def _per_index_escapes(schedule, k, horizon):
    """Reference: the escape set decided one index at a time."""
    return np.array(
        [
            n
            for n in range(1, horizon + 1)
            if disjointness(image_enclosing_disc(schedule(n), k), k)
        ],
        dtype=np.int64,
    )


def _similarities(rng):
    """phi_n(z) = a z + n b with random a near the unit circle and random b."""
    a = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    b = complex(rng.normal(), rng.normal())
    return lambda n: Similarity(a, b * n)


def _powers_of_two_schedules(rng):
    a = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    return [
        powers_of_two_schedule(Similarity(1.0, complex(rng.uniform(0.1, 3.0)))),
        powers_of_two_schedule(Similarity(a, complex(rng.normal(), rng.normal()))),
        powers_of_two_schedule(HalfPlaneShift(float(rng.uniform(0.1, 3.0)), 1.0, 1)),
        powers_of_two_schedule(RootShift(0.0, 1.0, 1, 1)),
    ]


def test_weak_runaway_moving_indices_match_per_index():
    rng = np.random.default_rng(61)
    cases = []
    for trial in range(2):
        sector = AnnularSector(float(rng.uniform(0.05, 0.3)),
                               float(rng.uniform(0.4, 100.0)),
                               float(rng.uniform(0.1, 3.0)))
        compacts = [
            ClosedDisc(complex(rng.normal(0, 50), rng.normal(0, 50)),
                       float(rng.uniform(0.5, 200.0))),
            ClosedDisc(0.0, float(rng.integers(1, 200))),  # ties at n = 2r
            ClosedDisc(complex(rng.normal(), rng.normal()), float(rng.uniform(0.2, 2.0))),
            sector,
        ]
        # the similarities are plain callables, decided at every index
        schedules = [_similarities(rng)] + _powers_of_two_schedules(rng)
        # square-root iterates need K off the slit
        roots = powers_of_two_schedule(RootShift(0.0, 1.0, 2, 1))
        for k in compacts:
            for schedule in schedules + ([roots] if k is sector else []):
                cases.append((k, schedule))
    # parabolic iterates act on the unit disc; each image disc applies the
    # Moebius disc rule of the base map once per iterate
    for k in (ClosedDisc(0.0, 0.5), ClosedDisc(0.3 - 0.4j, 0.2)):
        for shift in (1.0, 3.0):
            cases.append((k, powers_of_two_schedule(ParabolicDisc(shift, 1.0, 1))))
    for k, schedule in cases:
        for horizon in (1, 2, 3, 500):
            want = _per_index_escapes(schedule, k, horizon)
            got = check_weak_runaway(schedule, k, horizon).escape_set.elements
            assert np.array_equal(got, want), (k, schedule, horizon)


def test_powers_of_two_moving_indices_brute_force():
    schedule = powers_of_two_schedule(ParabolicDisc(1.0, 1.0, 1))
    moving = [n for n in range(1, 1101) if not isinstance(schedule(n), Identity)]
    for horizon in range(1, 1101):
        got = schedule.moving(horizon)
        assert got.dtype == np.int64
        assert got.tolist() == [n for n in moving if n <= horizon], horizon


def test_weak_runaway_refuses_an_empty_compact():
    empty = AnnularSector(1.0, 0.25, 0.0)
    for schedule in (_translations, powers_of_two_schedule(Similarity(1.0, 1.0))):
        with pytest.raises(ValueError, match="is empty"):
            check_weak_runaway(schedule, empty, horizon=100)


def _count_image_discs(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return image_enclosing_disc(*args, **kwargs)

    monkeypatch.setattr(runaway, "image_enclosing_disc", counted)
    return calls


def test_weak_runaway_touching_discs_do_not_escape(monkeypatch):
    calls = _count_image_discs(monkeypatch)
    rep = check_weak_runaway(
        lambda n: Similarity(1.0, 2.0), ClosedDisc(0.0, 1.0), horizon=50
    )
    assert len(rep.escape_set) == 0
    # a schedule without a moving method is decided at every index
    assert len(calls) == 50


def test_weak_runaway_non_finite_coefficients_raise_as_per_index():
    def translate(n):
        return Similarity(1.0, complex(math.inf) if n == 30 else complex(n))

    k = ClosedDisc(0.0, 1.0)
    with pytest.raises(ValueError, match="center must be finite"):
        check_weak_runaway(translate, k, horizon=100)
    # a^2 overflows at n = 4; with a huge K the disc at n = 2 fails first
    huge = powers_of_two_schedule(Similarity(1e200, 0.0))
    for schedule in (huge, lambda n: huge(n)):
        with pytest.raises(OverflowError):
            check_weak_runaway(schedule, k, horizon=100)
        with pytest.raises(ValueError, match="radius must be finite"):
            check_weak_runaway(schedule, ClosedDisc(0.0, 1e200), horizon=100)


def test_weak_runaway_powers_of_two_decides_moving_indices_only(monkeypatch):
    calls = _count_image_discs(monkeypatch)
    schedule = powers_of_two_schedule(Similarity(1.0, 1.0))
    rep = check_weak_runaway(schedule, ClosedDisc(0.0, 1.0), horizon=100_000)
    assert list(rep.escape_set) == [2 ** j for j in range(3, 17)]
    # one image disc per power of two up to the horizon, 2 .. 2^16
    assert len(calls) == 16


# ---------------------------------------------------------------------------
# Strong runaway


def _family_config(horizon, nu_max=2, maps=_translations):
    fam = build_separated_family(3, horizon, 8)
    return RunawayConfig(
        domain=WP,
        maps=maps,
        exhaustion=whole_plane_exhaustion(),
        family=fam.a_of_nu,
        n_max=horizon,
        nu_max=nu_max,
    )


def test_strong_runaway_translations_pass():
    cfg = _family_config(2000)
    rep = check_strong_runaway(cfg)
    assert rep.passed
    assert rep.p1_ok and rep.p2_ok and rep.p3_ok
    for nu, dens in rep.densities:
        assert dens.lower_estimate > 0.0
    assert rep.probes == ((1, 0, 0), (2, 0, 0))
    assert rep.p2_disc_witness is None and rep.p2_index_witness is None
    expected = len(cfg.family(1)) + len(cfg.family(2))
    assert len(rep.islands) == expected


def test_strong_runaway_island_discs_brute_force():
    cfg = _family_config(600)
    rep = check_strong_runaway(cfg)
    # oracle: translations of whole-plane discs have center n, radius nu
    for isl in rep.islands:
        assert isl.image_bound.center == pytest.approx(float(isl.n))
        assert isl.image_bound.radius == pytest.approx(float(isl.nu))
    for i, a in enumerate(rep.islands):
        for b in rep.islands[i + 1:]:
            assert abs(a.image_bound.center - b.image_bound.center) > (
                a.image_bound.radius + b.image_bound.radius
            )
    # spot check with actual mapped sample clouds
    few = rep.islands[:4]
    clouds = [apply(isl.map, sample_grid(isl.source, 2)) for isl in few]
    for i in range(len(few)):
        for j in range(i + 1, len(few)):
            gap = np.min(
                np.abs(clouds[i][:, None] - clouds[j][None, :])
            )
            assert gap > 0.0


def _dense_disc_pairs(centers, radii):
    """Reference: the disc test over the full m x m matrices."""
    sep = np.abs(centers[:, None] - centers[None, :])
    need = radii[:, None] + radii[None, :]
    iu = np.triu_indices(centers.size, k=1)
    bad = (sep <= need)[iu]
    gap = (sep - need)[iu]
    first_bad = closest = None
    best = np.inf
    if bad.any():
        k = int(np.argmax(bad))
        first_bad = (int(iu[0][k]), int(iu[1][k]))
    if gap.size:
        k = int(np.argmin(gap))
        best = float(gap[k])
        closest = (int(iu[0][k]), int(iu[1][k]))
    return first_bad, best, closest, int(gap.size)


def test_disc_pairs_match_dense_reference():
    rng = np.random.default_rng(20170502)
    meeting = 0
    for _ in range(240):
        m = int(rng.integers(0, 30))
        if rng.random() < 0.3:
            # translation-like islands on an integer line: exact gap ties
            centers = rng.choice(200, m, replace=False).astype(complex)
            radii = rng.integers(1, 4, m) * 0.5
        else:
            centers = rng.uniform(0, 100, m) + 1j * rng.uniform(0, 100, m)
            radii = rng.uniform(0.0, 4.0, m)
        expected = _dense_disc_pairs(centers, radii)
        assert disc_pairs(centers, radii) == expected
        meeting += expected[0] is not None
    assert 80 <= meeting <= 160


def test_strong_runaway_disc_memory_is_linear_in_islands():
    cfg = _family_config(16000)
    tracemalloc.start()
    try:
        rep = check_strong_runaway(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(rep.islands)
    assert m >= 1500 and rep.passed
    assert rep.disc_pairs_checked == m * (m - 1) // 2
    # the m x m complex center differences alone take m^2 x 16 B (> 36 MB)
    assert peak < 4e6


def test_strong_runaway_identity_fails_p2_and_stays_failed():
    for horizon in (600, 1200):
        cfg = _family_config(horizon, maps=lambda n: Identity(WP))
        rep = check_strong_runaway(cfg)
        assert not rep.passed and not rep.p2_ok
        assert rep.p2_disc_witness is not None
        (n1, nu1), (n2, nu2) = rep.p2_disc_witness
        d1 = next(i.image_bound for i in rep.islands if (i.n, i.nu) == (n1, nu1))
        d2 = next(i.image_bound for i in rep.islands if (i.n, i.nu) == (n2, nu2))
        assert abs(d1.center - d2.center) <= d1.radius + d2.radius


def test_strong_runaway_shared_index_sets_fail_p2():
    cfg = RunawayConfig(
        domain=WP,
        maps=_translations,
        exhaustion=whole_plane_exhaustion(),
        family=lambda nu: arithmetic_progression(8, 24, 2000),
        n_max=2000,
        nu_max=2,
    )
    rep = check_strong_runaway(cfg)
    assert not rep.p2_ok
    assert rep.p2_index_witness == (1, 2, 8)


def test_strong_runaway_empty_level_fails_p1():
    def family(nu):
        if nu == 1:
            return arithmetic_progression(8, 24, 2000)
        return IndexSet(np.empty(0, dtype=np.int64), 2000)

    cfg = RunawayConfig(
        domain=WP,
        maps=_translations,
        exhaustion=whole_plane_exhaustion(),
        family=family,
        n_max=2000,
        nu_max=2,
    )
    rep = check_strong_runaway(cfg)
    assert not rep.p1_ok and rep.p1_witness == 2
    assert not rep.passed


def test_offender_reporting_with_clean_tail():
    cfg = RunawayConfig(
        domain=WP,
        maps=_vertical,
        exhaustion=whole_plane_exhaustion(),
        family=lambda nu: arithmetic_progression(2 if nu == 1 else 6, 8, 500),
        n_max=500,
        nu_max=2,
    )
    rep = check_strong_runaway(cfg)
    assert rep.passed
    # the island at n = 2 touches K_1 and sits inside reach of K_2
    assert rep.probes[0] == (1, 1, 2)
    assert rep.probes[1][1] >= 1


def test_membership_guard_rejects_escaping_maps():
    cfg = RunawayConfig(
        domain=Domain.right_half_plane(),
        maps=lambda n: Similarity(1.0, -float(n)),
        exhaustion=right_half_plane_exhaustion(),
        family=lambda nu: arithmetic_progression(8, 24, 500),
        n_max=500,
        nu_max=1,
    )
    with pytest.raises(ValueError, match="does not send"):
        collect_islands(cfg)


def test_collect_islands_samples_each_level_once(monkeypatch):
    from freqdyn import maps

    calls = []

    def counting(c, resolution):
        calls.append(c)
        return sample_grid(c, resolution)

    # translations have exact image discs, so every sample is a domain check
    monkeypatch.setattr(runaway, "sample_grid", counting)
    monkeypatch.setattr(maps, "sample_grid", counting)
    cfg = _family_config(2000, nu_max=3)
    islands = collect_islands(cfg)
    assert len(islands) > 10 * cfg.nu_max
    assert len(calls) <= cfg.nu_max


def test_config_domain_mismatch_rejected():
    with pytest.raises(ValueError, match="domain"):
        RunawayConfig(
            domain=Domain.unit_disc(),
            maps=_translations,
            exhaustion=whole_plane_exhaustion(),
            family=lambda nu: arithmetic_progression(8, 24, 100),
            n_max=100,
            nu_max=1,
        )


# ---------------------------------------------------------------------------
# Overlap inequality witness


def test_overlap_forces_unit_gap_for_constant_target():
    # whenever K meets phi(K), the constant 1 + sup|f| stays at distance
    # >= 1 from f composed with phi somewhere on K
    k = ClosedDisc(0.0, 1.0)
    pts = sample_grid(k, 4)
    f = lambda z: z ** 2 / 4.0
    shift = Similarity(1.0, 1.0)
    moved = apply(shift, pts)
    inside = np.abs(moved) <= 1.0
    assert inside.any(), "overlap witness missing from the grid"
    g = 1.0 + np.max(np.abs(f(pts)))
    gap = np.max(np.abs(g - f(moved)[inside]))
    assert gap >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Truncations


def test_truncation_translations():
    cfg = _family_config(2000)
    tr = build_carleman_truncation(cfg, bases=1, max_islands=4)
    assert tr.k_base == 1
    assert len(tr.bases) == 1
    assert len(tr.islands) == 4
    ns = [isl.n for isl in tr.islands]
    assert ns == sorted(ns)
    for i, a in enumerate(tr.islands):
        assert a.nu >= tr.k_base
        for b in tr.islands[i + 1:]:
            assert disjointness(a.image_bound, b.image_bound)
        for base in tr.bases:
            assert disjointness(a.image_bound, base)
    assert all(count == 0 for _, count in tr.probe_counts)


def test_truncation_island_bounds_hold_on_fine_grids():
    cfg = _family_config(2000)
    tr = build_carleman_truncation(cfg, bases=1, max_islands=4)
    for isl in tr.islands:
        pts = sample_grid(isl.source, 12)
        reach = np.max(np.abs(apply(isl.map, pts) - isl.image_bound.center))
        assert reach <= isl.image_bound.radius + 1e-9


def test_truncation_skips_offending_level():
    cfg = RunawayConfig(
        domain=WP,
        maps=_vertical,
        exhaustion=whole_plane_exhaustion(),
        family=lambda nu: arithmetic_progression(2 if nu == 1 else 6, 8, 500),
        n_max=500,
        nu_max=2,
    )
    tr = build_carleman_truncation(cfg, bases=1, max_islands=6)
    assert tr.k_base == 2
    assert tr.islands and all(isl.nu == 2 for isl in tr.islands)


def test_truncation_horizon_exhaustion():
    cfg = RunawayConfig(
        domain=WP,
        maps=_vertical,
        exhaustion=whole_plane_exhaustion(),
        family=lambda nu: arithmetic_progression(6 if nu == 1 else 2, 8, 500),
        n_max=500,
        nu_max=2,
    )
    assert check_strong_runaway(cfg).passed
    with pytest.raises(HorizonExhausted):
        build_carleman_truncation(cfg, bases=1, max_islands=6)


def test_truncation_requires_strong_pass():
    cfg = _family_config(600, maps=lambda n: Identity(WP))
    with pytest.raises(ValueError, match="P2"):
        build_carleman_truncation(cfg, bases=1, max_islands=6)


def test_truncation_bases_zero():
    cfg = _family_config(1000)
    tr = build_carleman_truncation(cfg, bases=0, max_islands=3)
    assert tr.bases == ()
    assert tr.k_base == 1
    assert len(tr.islands) == 3


def test_truncation_rejects_bad_arguments():
    cfg = _family_config(600)
    with pytest.raises(ValueError):
        build_carleman_truncation(cfg, bases=5, max_islands=4)
    with pytest.raises(ValueError):
        build_carleman_truncation(cfg, bases=0, max_islands=0)
