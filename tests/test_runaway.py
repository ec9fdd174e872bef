"""Tests for runaway checkers and finite truncations."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqdyn import cli, geometry, runaway
from freqdyn.density import IndexSet, arithmetic_progression, build_separated_family
from freqdyn.geometry import (
    AnnularSector,
    ClosedDisc,
    Domain,
    Exhaustion,
    disc_pairs,
    disjointness,
    enclosing_disc,
    right_half_plane_exhaustion,
    sample_grid,
    unit_disc_exhaustion,
    whole_plane_exhaustion,
)
from freqdyn.maps import (
    DiscAutomorphism,
    HalfPlaneShift,
    Identity,
    Mobius,
    ParabolicDisc,
    RootShift,
    Similarity,
    apply,
    image_enclosing_disc,
    iterate,
    maps_into,
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
from test_maps import oracle_image_disc

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
    assert schedule(1) == Identity(Domain.unit_disc())
    assert schedule(2) == base
    assert schedule(8) == iterate(base, 3)
    assert schedule(12) == Identity(Domain.unit_disc())


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
    # parabolic iterates act on the unit disc; each image disc is the
    # Moebius disc rule of the matrix power
    for k in (ClosedDisc(0.0, 0.5), ClosedDisc(0.3 - 0.4j, 0.2)):
        for shift in (1.0, 3.0):
            cases.append((k, powers_of_two_schedule(ParabolicDisc(shift, 1.0, 1))))
    for k, schedule in cases:
        for horizon in (1, 2, 3, 500):
            want = _per_index_escapes(schedule, k, horizon)
            got = check_weak_runaway(schedule, k, horizon).escape_set.elements
            assert np.array_equal(got, want), (k, schedule, horizon)


def test_weak_runaway_direct_schedules_match_per_index():
    # plain callables are decided at every index, in blocks of
    # INDEX_BLOCK maps; 2500 indices span three blocks
    horizon = 2 * runaway.INDEX_BLOCK + 452
    half = Domain.right_half_plane()
    cases = [
        (ClosedDisc(0.0, 40.0), lambda n: Similarity(1.0, complex(n))),
        (ClosedDisc(3.0 - 2.0j, 7.5), lambda n: Similarity(0.999 + 0.01j, 0.01 * n)),
        (ClosedDisc(5.0, 2.0), lambda n: HalfPlaneShift(0.002, 1.0, n)),
        (AnnularSector(0.1, 900.0, 2.0), lambda n: RootShift(0.0, 1.0, 1, n)),
        (ClosedDisc(0.0, 3.0), lambda n: iterate(Similarity(1.0, 0.5), n % 7 + 1)),
        (ClosedDisc(2.0, 1.0), lambda n: Identity(half) if n % 5 else HalfPlaneShift(1.0, 1.0, n)),
        # parabolic records share their blocks with affine ones
        (ClosedDisc(0.1, 0.4), lambda n: ParabolicDisc(1.0, 1.0, n) if n % 2 else Identity(Domain.unit_disc())),
        (AnnularSector(0.5, 4.0, 1.0), lambda n: RootShift(0.0, 1.0, 1 + n % 2, n)),
    ]
    for k, schedule in cases:
        got = check_weak_runaway(schedule, k, horizon).escape_set.elements
        assert np.array_equal(got, _per_index_escapes(schedule, k, horizon)), k


def test_powers_of_two_moving_indices_brute_force():
    schedule = powers_of_two_schedule(ParabolicDisc(1.0, 1.0, 1))
    moving = [n for n in range(1, 1101) if schedule(n) != Identity(Domain.unit_disc())]
    for horizon in range(1, 1101):
        got = schedule.moving(horizon)
        assert got.dtype == np.int64
        assert got.tolist() == [n for n in moving if n <= horizon], horizon


def test_weak_runaway_refuses_an_empty_compact():
    empty = AnnularSector(1.0, 0.25, 0.0)
    for schedule in (_translations, powers_of_two_schedule(Similarity(1.0, 1.0))):
        with pytest.raises(ValueError, match="is empty"):
            check_weak_runaway(schedule, empty, horizon=100)


class _CountedSchedule:
    """A schedule that records the indices its maps are built at; a
    ``moving`` method of the wrapped schedule shows through."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)
        return self.schedule(n)

    def __getattr__(self, name):
        return getattr(self.schedule, name)


def test_weak_runaway_touching_discs_do_not_escape():
    schedule = _CountedSchedule(lambda n: Similarity(1.0, 2.0))
    rep = check_weak_runaway(schedule, ClosedDisc(0.0, 1.0), horizon=50)
    assert len(rep.escape_set) == 0
    # a schedule without a moving method is decided at every index
    assert schedule.calls == list(range(1, 51))


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


def test_weak_runaway_powers_of_two_decides_moving_indices_only():
    schedule = _CountedSchedule(powers_of_two_schedule(Similarity(1.0, 1.0)))
    rep = check_weak_runaway(schedule, ClosedDisc(0.0, 1.0), horizon=100_000)
    assert list(rep.escape_set) == [2 ** j for j in range(3, 17)]
    # one map per power of two up to the horizon, 2 .. 2^16
    assert schedule.calls == [2 ** j for j in range(1, 17)]


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
    diff = centers[:, None] - centers[None, :]
    sep = np.hypot(diff.real, diff.imag)
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


def _row_disc_pairs(centers, radii):
    """Reference: the disc test one upper-triangle row at a time, with
    the np.hypot of disjointness."""
    m = centers.size
    first_bad = closest = None
    best = math.inf
    for i in range(m - 1):
        d = centers[i] - centers[i + 1:]
        sep = np.hypot(d.real, d.imag)
        need = radii[i] + radii[i + 1:]
        if first_bad is None:
            bad = np.flatnonzero(sep <= need)
            if bad.size:
                first_bad = (i, i + 1 + int(bad[0]))
        gap = sep - need
        j = int(np.argmin(gap))
        if gap[j] < best:
            best = float(gap[j])
            closest = (i, i + 1 + j)
    return first_bad, best, closest, m * (m - 1) // 2


_halves = st.integers(0, 8).map(lambda k: 0.5 * k)
_ints = st.integers(-30, 30)


@st.composite
def _disc_sets(draw):
    """Discs whose pairs tie, touch, share centres or sit off the axis,
    crowd on one vertical line or a diagonal, or tie in both sweep axes."""
    m = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(
        ["line", "pool", "plane", "vertical", "diagonal", "mirror"]))
    if kind == "vertical":
        # equal real parts: every real extent meets every other, so the
        # sweep runs along Im
        x = draw(st.sampled_from([0.0, -3.5, 1e-3]))
        centers = [complex(x, y) for y in draw(st.lists(_ints, min_size=m, max_size=m))]
        radii = draw(st.lists(_halves, min_size=m, max_size=m))
    elif kind == "diagonal":
        # Re and Im extents coincide or mirror each other, so neither
        # axis prunes pairs that the other keeps
        sign = draw(st.sampled_from([1.0, -1.0]))
        centers = [complex(t, sign * t)
                   for t in draw(st.lists(_ints, min_size=m, max_size=m))]
        radii = draw(st.lists(_halves, min_size=m, max_size=m))
    elif kind == "mirror":
        # closed under (x, y) -> (y, x), distinct coordinates, one radius:
        # the two sweeps mirror each other and tie in their pair counts
        vals = draw(st.lists(_ints, min_size=m // 2 * 2, max_size=m // 2 * 2,
                             unique=True))
        pts = list(zip(vals[: m // 2], vals[m // 2 :]))
        centers = [complex(x, y) for x, y in pts] + [complex(y, x) for x, y in pts]
        radii = [draw(_halves)] * len(centers)
    elif kind == "line":
        # translation-like islands on an integer line: exact gap ties and
        # touching discs
        centers = [complex(x) for x in draw(st.lists(_ints, min_size=m, max_size=m))]
        radii = draw(st.lists(_halves, min_size=m, max_size=m))
    elif kind == "pool":
        # duplicated off-axis centres on the integer lattice, where
        # hypot(3, 4) = 5 makes touching pairs
        pool = draw(st.lists(st.tuples(_ints, _ints), min_size=1, max_size=5))
        picks = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        centers = [complex(x, y) for x, y in picks]
        radii = draw(st.lists(_halves, min_size=m, max_size=m))
    else:
        coord = st.floats(-100.0, 100.0)
        centers = [complex(x, y) for x, y in draw(
            st.lists(st.tuples(coord, coord), min_size=m, max_size=m))]
        radii = draw(st.lists(st.floats(0.0, 12.0), min_size=m, max_size=m))
    return np.array(centers, dtype=complex), np.array(radii, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_disc_sets())
def test_disc_pairs_sweep_matches_all_pairs_hypothesis(discs):
    centers, radii = discs
    got = disc_pairs(centers, radii)
    assert got == _dense_disc_pairs(centers, radii)
    assert got == _row_disc_pairs(centers, radii)


def test_disc_pairs_sweeps_the_axis_with_fewer_pairs(monkeypatch):
    evaluated = []
    pair_gaps = geometry._pair_gaps

    def counting(centers, radii, i, j):
        evaluated.append(len(i))
        return pair_gaps(centers, radii, i, j)

    monkeypatch.setattr(geometry, "_pair_gaps", counting)
    m = 2000
    # a vertical column of unit discs 3 apart: every real extent meets
    # every other, while along Im only neighbours are candidates; then the
    # column in reverse index order, and the column turned onto the real
    # axis, where the real sweep is the cheaper one
    column = 1j * 3.0 * np.arange(m)
    for centers in (column, column.real + 1j * column.imag[::-1], 1j * column):
        evaluated.clear()
        got = disc_pairs(centers, np.ones(m))
        assert got == _row_disc_pairs(centers, np.ones(m))
        assert got[1] == 1.0 and got[0] is None
        # two sweeps' neighbour bounds plus the evaluated candidates
        assert sum(evaluated) <= 3 * m


def test_disc_pairs_sweeps_one_disc_per_group(monkeypatch):
    evaluated = []
    pair_gaps = geometry._pair_gaps

    def counting(centers, radii, i, j):
        evaluated.append(len(i))
        return pair_gaps(centers, radii, i, j)

    monkeypatch.setattr(geometry, "_pair_gaps", counting)
    m = 3000
    # 3000 copies of one disc: every pair was evaluated, 4,498,500 of them
    assert disc_pairs(np.zeros(m, dtype=complex), np.ones(m)) == (
        (0, 1), -2.0, (0, 1), m * (m - 1) // 2)
    assert sum(evaluated) <= 3 * m
    # 17 discs, some meeting, each repeated in shuffled index order, as
    # the identity islands of a powers-of-two schedule share their discs
    rng = np.random.default_rng(17)
    pick = rng.integers(0, 17, m)
    centers = (rng.integers(-8, 8, 17) + 1j * rng.integers(-8, 8, 17))[pick]
    radii = (rng.integers(0, 6, 17) * 0.5)[pick]
    evaluated.clear()
    assert disc_pairs(centers, radii) == _row_disc_pairs(centers, radii)
    assert sum(evaluated) <= 3 * m


def test_disc_pairs_heavy_overlap_in_linear_memory():
    rng = np.random.default_rng(3000)
    identical = (np.zeros(3000, dtype=complex), np.ones(3000))
    crowded = (rng.uniform(0, 1, 3000) + 1j * rng.uniform(0, 1, 3000),
               rng.uniform(0.0, 0.05, 3000))
    for centers, radii in (identical, crowded):
        tracemalloc.start()
        try:
            got = disc_pairs(centers, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _row_disc_pairs(centers, radii)
        # the bound of test_strong_runaway_disc_memory_is_linear_in_islands
        assert peak < 4e6
    assert disc_pairs(*identical) == ((0, 1), -2.0, (0, 1), 3000 * 2999 // 2)


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
    # K_1 is the point 1; z - n leaves the half plane from the first n on
    with pytest.raises(ValueError, match="map at index 8 does not send level 1"):
        collect_islands(cfg)


def test_membership_guard_refuses_an_image_disc_touching_the_boundary():
    # z - (0.5 + 5e-13) sends D(1, 1/2) onto D(0.5 - 5e-13, 1/2), which
    # crosses Re z = 0 by 5e-13: a sample check with slack 1e-12 passes it
    m = Similarity(1.0, -(0.5 + 5e-13))
    k = ClosedDisc(1.0, 0.5)
    half = Domain.right_half_plane()
    assert not maps_into(m, half, k)
    assert maps_into(Similarity(1.0, -0.49), half, k)
    cfg = RunawayConfig(
        domain=half,
        maps=lambda n: m,
        exhaustion=Exhaustion(half, "one disc", lambda nu: k),
        family=lambda nu: arithmetic_progression(1, 1, 10),
        n_max=10,
        nu_max=1,
    )
    with pytest.raises(ValueError, match="map at index 1 does not send level 1"):
        collect_islands(cfg)


def _scalar_islands(cfg):
    """Reference: the islands decided one at a time, each by maps_into
    and a scalar disc rule, the frozen oracle_image_disc for a Mobius
    record and image_enclosing_disc otherwise: (n, nu, centre, radius)
    per island."""
    out = []
    for nu in range(1, cfg.nu_max + 1):
        source = cfg.exhaustion.member(nu)
        for n in cfg.family(nu):
            if n > cfg.n_max:
                break
            m = cfg.maps(n)
            if not maps_into(m, cfg.domain, source):
                raise ValueError(
                    f"map at index {n} does not send level {nu} into the domain"
                )
            if isinstance(m, Mobius):
                disc = oracle_image_disc((m.a, m.b, m.c, m.d), enclosing_disc(source))
            else:
                disc = image_enclosing_disc(m, source)
            out.append((n, nu, disc.center, disc.radius))
    return out


def _error_of(fn, cfg):
    try:
        fn(cfg)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.filterwarnings("error")
def test_collect_islands_raises_where_the_scalar_loop_raises():
    def shifts(n):  # affine: leave the unit disc once 0.5 + 0.02 n >= 1
        return Similarity(1.0, 0.02 * n)

    def with_root(n):  # a root shift refuses the centre of K_1 at n = 20
        return RootShift(0.0, 1.0, 2, n) if n == 20 else shifts(n)

    def with_automorphisms(n):  # scalar maps between the affine ones
        return DiscAutomorphism(1.0, 0.1) if n % 3 == 0 else shifts(n)

    def overflowing(n):  # the closed form of the iterate at 40 overflows
        return iterate(Similarity(1.5, 0.0), 1 if n < 40 else 2000)

    def unbounded(n):
        return Similarity(1.0, complex(math.inf) if n == 11 else 0.0)

    schedules = (
        (shifts, "index 25 does not send"),
        (with_root, "index 20 does not send"),
        (with_automorphisms, "index 25 does not send"),
        (overflowing, "index 40 does not send"),
        (unbounded, "index 11 does not send"),
    )
    for maps, message in schedules:
        cfg = RunawayConfig(
            domain=Domain.unit_disc(),
            maps=maps,
            exhaustion=unit_disc_exhaustion(),
            family=lambda nu: arithmetic_progression(1, 1, 2 * runaway.INDEX_BLOCK),
            n_max=2 * runaway.INDEX_BLOCK,
            nu_max=1,
        )
        with np.errstate(over="ignore"):
            want = _error_of(_scalar_islands, cfg)
            assert want is not None and message in want[1]
            assert _error_of(collect_islands, cfg) == want


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# The shipped runs that certify strong runaway (scripts/run_examples.py):
# runaway-strong, runaway-p2 (iterates), runaway-disc (parabolic),
# example1, example1-scan and dense.
SHIPPED_RUNAWAY = (
    ("runaway_strong.ini", ()),
    ("runaway_strong.ini", ("maps.schedule=powers_of_two",)),
    ("runaway_strong.ini", ("domain.kind=unit_disc", "maps.family=parabolic_disc")),
    ("example1.ini", ()),
    ("example1.ini", ("maps.c=1.0",)),
    ("dense.ini", ()),
)


def _shipped_runaway_config(config, overrides):
    cfg = cli.apply_overrides(cli.load_config(os.path.join(CONFIGS, config)), overrides)
    return cli._prepare_runaway(cfg)[-1]


@pytest.mark.parametrize("config, overrides", SHIPPED_RUNAWAY)
def test_array_islands_are_the_scalar_islands_bit_for_bit(config, overrides):
    cfg = _shipped_runaway_config(config, overrides)
    islands = collect_islands(cfg)
    want = _scalar_islands(cfg)
    assert len(islands) == len(want) > 0
    assert islands.n.tolist() == [n for n, _, _, _ in want]
    assert islands.nu.tolist() == [nu for _, nu, _, _ in want]
    centers = np.array([c for _, _, c, _ in want], dtype=complex)
    radii = np.array([r for _, _, _, r in want], dtype=float)
    assert islands.centers.tobytes() == centers.tobytes()
    assert islands.radii.tobytes() == radii.tobytes()
    isl = islands[-1]
    assert (isl.n, isl.nu) == want[-1][:2]
    assert isl.image_bound == image_enclosing_disc(isl.map, isl.source)


@pytest.mark.parametrize("config, overrides", SHIPPED_RUNAWAY)
def test_shipped_runaway_p2_p3_fields_match_the_oracle(config, overrides):
    """The regression gate for P2 and P3: every disc field of the report
    against the scalar islands, the row-by-row pair test and the scalar
    disjointness test."""
    cfg = _shipped_runaway_config(config, overrides)
    rep = check_strong_runaway(cfg)
    islands = _scalar_islands(cfg)
    labels = [(n, nu) for n, nu, _, _ in islands]
    first_bad, gap, closest, checked = _row_disc_pairs(
        np.array([c for _, _, c, _ in islands], dtype=complex),
        np.array([r for _, _, _, r in islands], dtype=float),
    )
    pair = lambda p: None if p is None else (labels[p[0]], labels[p[1]])
    assert rep.p2_disc_witness == pair(first_bad)
    assert rep.disc_gap_pair == pair(closest)
    assert math.copysign(1.0, rep.disc_gap) == math.copysign(1.0, gap)
    assert rep.disc_gap == gap
    assert rep.disc_pairs_checked == checked == len(islands) * (len(islands) - 1) // 2

    index_witness = None
    for nu in range(1, cfg.nu_max + 1):
        for mu in range(nu + 1, cfg.nu_max + 1):
            common = sorted(set(cfg.family(nu)) & set(cfg.family(mu)))
            if common and index_witness is None:
                index_witness = (nu, mu, common[0])
    assert rep.p2_index_witness == index_witness

    probes, p3_witness = [], None
    for mu in range(1, cfg.nu_max + 1):
        probe = cfg.exhaustion.member(mu)
        offenders = [
            n for n, _, c, r in islands if not disjointness(ClosedDisc(c, r), probe)
        ]
        last = max(offenders, default=0)
        probes.append((mu, len(offenders), last))
        if offenders and not any(n > last for n, _, _, _ in islands) and p3_witness is None:
            p3_witness = mu
    assert rep.probes == tuple(probes)
    assert rep.p3_witness == p3_witness
    assert rep.p3_ok == (p3_witness is None)


def test_collect_islands_decides_passing_blocks_without_maps_into(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return maps_into(*args)

    monkeypatch.setattr(runaway, "maps_into", counting)
    # translations whose discs lie in the plane pass by the array rule alone
    cfg = _family_config(2000, nu_max=3)
    assert len(collect_islands(cfg)) > 10 * cfg.nu_max
    assert calls == []
    # an identity's image is its sector, whose enclosing disc meets the
    # slit, so that block is decided map by map and passes
    exh = geometry.sector_exhaustion(1.0, 0.0, 1.0, 1)
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=powers_of_two_schedule(RootShift(0.0, 1.0, 1, 1)),
        exhaustion=exh,
        family=lambda nu: arithmetic_progression(nu + 1, 4, 100),
        n_max=100,
        nu_max=2,
    )
    islands = collect_islands(cfg)
    assert len(islands) == 2 * 25 and calls


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
    assert all(count == 0 for _, count, _ in check_strong_runaway(cfg).probes)


@pytest.mark.parametrize(
    "make_cfg",
    (
        lambda: _family_config(2000),
        # parabolic Moebius maps of the unit disc, and slit-plane
        # translations of annular sectors, as the shipped runs set them up
        lambda: _shipped_runaway_config(
            "runaway_strong.ini", ("domain.kind=unit_disc", "maps.family=parabolic_disc")
        ),
        lambda: _shipped_runaway_config("example1.ini", ("maps.c=1.0",)),
    ),
    ids=("translations", "parabolic-disc", "slit-sectors"),
)
def test_truncation_island_bounds_hold_on_fine_grids(make_cfg):
    tr = build_carleman_truncation(make_cfg(), bases=1, max_islands=4)
    assert tr.islands
    for isl in tr.islands:
        pts = sample_grid(isl.source, 12)
        reach = np.max(np.abs(apply(isl.map, pts) - isl.image_bound.center))
        assert reach <= isl.image_bound.radius * (1.0 + 1e-12)


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
