"""Tests for index sets, splitting, and separated families."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqdyn import density
from freqdyn.density import (
    IndexSet,
    arithmetic_progression,
    build_separated_family,
    check_similarity_criterion,
    check_translation_separation,
    diagonal_pairs,
    lower_density_estimate,
    naturals,
    split,
    split_assignment,
    verify_separated_family,
)

DENSITY_TOL = 2e-3


# ---------------------------------------------------------------------------
# IndexSet basics


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(np.array([0, 1]), 10)
    with pytest.raises(ValueError):
        IndexSet(np.array([3, 3]), 10)
    with pytest.raises(ValueError):
        IndexSet(np.array([2, 1]), 10)
    with pytest.raises(ValueError):
        IndexSet(np.array([5, 20]), 10)


def test_index_set_membership_and_counts():
    s = IndexSet.from_elements([2, 5, 11], n_max=20)
    assert 5 in s and 6 not in s and len(s) == 3
    # oracle: count by explicit loop
    for n in range(1, 21):
        assert s.count_up_to(n) == sum(1 for x in [2, 5, 11] if x <= n)


def test_arithmetic_progression_matches_loop():
    ap = arithmetic_progression(8, 24, 1000)
    assert list(ap) == [8 + 24 * j for j in range(42)]
    assert ap.closed_form_density == pytest.approx(1 / 24)


# ---------------------------------------------------------------------------
# Density estimates


def test_naturals_have_density_one():
    rep = lower_density_estimate(naturals(1000), 1000)
    assert rep.lower_estimate == 1.0
    assert rep.upper_estimate == 1.0
    assert not rep.empty


def test_progression_estimate_near_closed_form():
    ap = arithmetic_progression(8, 24, 100_000)
    rep = lower_density_estimate(ap, 100_000)
    assert rep.burn_in == 20_000
    assert rep.closed_form == pytest.approx(1 / 24)
    assert abs(rep.lower_estimate - 1 / 24) < DENSITY_TOL
    assert abs(rep.upper_estimate - 1 / 24) < DENSITY_TOL
    assert rep.lower_estimate <= 1 / 24 <= rep.upper_estimate


def test_estimates_bracket_every_prefix_ratio():
    s = IndexSet.from_elements([1, 2, 3, 50, 51, 52, 53, 54], n_max=60)
    rep = lower_density_estimate(s, 60, burn_in=5)
    # oracle: direct scan
    ratios = [sum(1 for x in s if x <= n) / n for n in range(5, 61)]
    assert rep.lower_estimate == pytest.approx(min(ratios))
    assert rep.upper_estimate == pytest.approx(max(ratios))


def test_empty_set_reports_zero():
    s = IndexSet(np.empty(0, dtype=np.int64), 100)
    rep = lower_density_estimate(s, 100)
    assert rep.empty
    assert rep.lower_estimate == 0.0 and rep.upper_estimate == 0.0


def test_checkpoints_are_consistent():
    ap = arithmetic_progression(3, 7, 5000)
    rep = lower_density_estimate(ap, 5000)
    assert rep.checkpoints[0][0] == rep.burn_in
    assert rep.checkpoints[-1][0] == 5000
    for n, ratio in rep.checkpoints:
        assert ratio == pytest.approx(int(ap.count_up_to(n)) / n)


def _dense_density_reference(a, horizon, burn_in):
    """Every prefix ratio from burn_in to horizon, as one array."""
    ns = np.arange(burn_in, horizon + 1, dtype=np.int64)
    ratios = a.count_up_to(ns) / ns
    return ns, ratios


def test_density_estimate_matches_dense_prefix_ratios():
    rng = np.random.default_rng(20261018)
    for trial in range(40):
        n_max = int(rng.integers(1, 5000))
        p = rng.choice([0.0, 0.001, 0.05, 0.5, 0.97, 1.0])
        els = np.flatnonzero(rng.random(n_max) < p) + 1
        s = IndexSet(els, n_max)
        horizon = int(rng.integers(1, n_max + 1))
        burn_in = None if trial % 2 else int(rng.integers(1, horizon + 1))
        rep = lower_density_estimate(s, horizon, burn_in)
        ns, ratios = _dense_density_reference(s, horizon, rep.burn_in)
        assert rep.lower_estimate == float(ratios.min())
        assert rep.upper_estimate == float(ratios.max())
        assert rep.checkpoints == tuple(
            (n, float(ratios[n - rep.burn_in])) for n, _ in rep.checkpoints
        )
        assert rep.checkpoints[0][0] == rep.burn_in
        assert rep.checkpoints[-1][0] == horizon


def test_density_rejects_bad_windows():
    s = naturals(100)
    with pytest.raises(ValueError):
        lower_density_estimate(s, 200)
    with pytest.raises(ValueError):
        lower_density_estimate(s, 100, burn_in=0)
    with pytest.raises(ValueError):
        lower_density_estimate(s, 50, burn_in=60)


@given(
    st.sets(st.integers(min_value=1, max_value=400), min_size=0, max_size=120),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_density_invariants(elements, burn_in):
    s = IndexSet.from_elements(elements, n_max=400)
    rep = lower_density_estimate(s, 400, burn_in=burn_in)
    assert 0.0 <= rep.lower_estimate <= rep.upper_estimate <= 1.0
    if not elements:
        assert rep.empty


def _concatenating_density_estimate(a, horizon, burn_in=None):
    """lower_density_estimate as it was before the blocks: every ratio of
    the window in one array of 2 n + 2 prefix lengths."""
    if burn_in is None:
        burn_in = max(1, horizon // 5)
    els = a.elements[(a.elements > burn_in) & (a.elements <= horizon)]
    ns = np.concatenate(([burn_in], els - 1, els, [horizon])).astype(np.int64)
    ratios = a.count_up_to(ns) / ns
    marks = np.unique(
        np.clip(
            np.round(np.logspace(math.log10(burn_in), math.log10(horizon), 33)),
            burn_in,
            horizon,
        ).astype(np.int64)
    )
    checkpoints = tuple(
        (int(n), float(r)) for n, r in zip(marks, a.count_up_to(marks) / marks)
    )
    return (
        float(ratios.min()),
        float(ratios.max()),
        bool(a.count_up_to(horizon) == 0),
        checkpoints,
    )


def _assert_matches_concatenating_estimate(a, horizon, burn_in):
    rep = lower_density_estimate(a, horizon, burn_in)
    lower, upper, empty, checkpoints = _concatenating_density_estimate(
        a, horizon, burn_in
    )
    # bit for bit, not approximately
    assert rep.lower_estimate == lower
    assert rep.upper_estimate == upper
    assert rep.empty is empty
    assert rep.checkpoints == checkpoints


@given(
    st.sets(st.integers(min_value=1, max_value=300), max_size=120),
    st.integers(min_value=1, max_value=300),
    st.data(),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_density_estimate_matches_the_concatenating_oracle(elements, n_max, data, block):
    # blocks of a few elements, so that windows cross block boundaries
    s = IndexSet.from_elements(sorted(x for x in elements if x <= n_max), n_max=n_max)
    horizon = data.draw(st.integers(min_value=1, max_value=n_max))
    burn_in = data.draw(st.none() | st.integers(min_value=1, max_value=horizon))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "DENSITY_BLOCK", block)
        _assert_matches_concatenating_estimate(s, horizon, burn_in)


@pytest.mark.parametrize("block", [1, 2, 3, 16384])
@pytest.mark.parametrize(
    "elements, n_max, horizon, burn_in",
    [
        # an empty window: no element in (burn_in, horizon]
        ([1, 2, 3, 90], 100, 80, 10),
        ([], 50, 50, None),
        # burn_in == horizon, on an element and between elements
        ([4, 9, 16, 25], 30, 16, 16),
        ([4, 9, 16, 25], 30, 20, 20),
        # elements past the horizon
        ([3, 6, 9, 12, 15, 18, 21], 21, 10, 2),
        # the window holds exactly one block, and one element more
        ([2, 3, 5, 7, 11, 13], 13, 13, 1),
        (list(range(1, 200, 2)), 200, 199, 1),
    ],
)
def test_density_estimate_matches_the_oracle_at_the_window_edges(
    monkeypatch, block, elements, n_max, horizon, burn_in
):
    monkeypatch.setattr(density, "DENSITY_BLOCK", block)
    s = IndexSet.from_elements(elements, n_max=n_max)
    _assert_matches_concatenating_estimate(s, horizon, burn_in)


def test_density_estimate_memory_does_not_grow_with_the_window():
    s = naturals(4_000_000)
    tracemalloc.start()
    try:
        rep = lower_density_estimate(s, s.n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.lower_estimate == rep.upper_estimate == 1.0
    # 4 * 10^6 elements in the window, under 64 bytes per element of one block
    assert peak < 64 * density.DENSITY_BLOCK


# ---------------------------------------------------------------------------
# Rank splitting


def _oracle_halving(n, parts):
    """Repeatedly take every other rank; last part absorbs the rest."""
    out = []
    rem = list(range(1, n + 1))
    for _ in range(parts - 1):
        out.append(rem[0::2])
        rem = rem[1::2]
    out.append(rem)
    return out


def test_split_assignment_matches_halving_oracle():
    for parts in (1, 2, 3, 7):
        oracle = _oracle_halving(64, parts)
        for j, ranks in enumerate(oracle, start=1):
            for k in ranks:
                assert min(split_assignment(k), parts) == j


def test_split_assignment_known_values():
    assert [split_assignment(k) for k in range(1, 13)] == [
        1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3,
    ]


def test_split_assignment_rejects_zero():
    with pytest.raises(ValueError):
        split_assignment(0)


def test_split_partitions_a_set():
    s = IndexSet.from_elements(range(5, 500, 5), n_max=500)
    parts = split(s, 3, 500)
    merged = np.concatenate([p.elements for p in parts])
    assert np.array_equal(np.sort(merged), s.elements)
    oracle = _oracle_halving(len(s), 3)
    for p, ranks in zip(parts, oracle):
        assert list(p) == [int(s.elements[k - 1]) for k in ranks]


def test_split_part_densities():
    n = naturals(2 ** 14)
    parts = split(n, 4, 2 ** 14)
    for j, p in enumerate(parts[:-1], start=1):
        rep = lower_density_estimate(p, 2 ** 14)
        assert abs(rep.lower_estimate - 2.0 ** -j) < DENSITY_TOL
    last = lower_density_estimate(parts[-1], 2 ** 14)
    # the absorbing part has density 2^-(parts-1)
    assert abs(last.lower_estimate - 2.0 ** -3) < DENSITY_TOL


@given(
    st.sets(st.integers(min_value=1, max_value=300), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition(elements, parts):
    s = IndexSet.from_elements(elements, n_max=300)
    pieces = split(s, parts, 300)
    assert len(pieces) == parts
    merged = np.concatenate([p.elements for p in pieces])
    assert np.array_equal(np.sort(merged), s.elements)
    assert merged.size == s.elements.size


def _split_by_assignment(a, parts, horizon):
    """split as it was before the strided slices: the rank assignment of
    every element up to the horizon, then one mask per part."""
    els = a.elements[a.elements <= horizon]
    k = np.arange(1, els.size + 1, dtype=np.int64)
    assign = np.minimum(np.log2(k & -k).astype(np.int64) + 1, parts)
    base = a.descriptor or "set"
    return [
        IndexSet(els[assign == j], min(horizon, a.n_max), f"{base}|part{j}of{parts}")
        for j in range(1, parts + 1)
    ]


@given(
    st.sets(st.integers(min_value=1, max_value=300), max_size=150),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_split_matches_the_assignment_oracle(elements, n_max, parts, data):
    s = IndexSet.from_elements(
        sorted(x for x in elements if x <= n_max), n_max=n_max, descriptor="s"
    )
    horizon = data.draw(st.integers(min_value=1, max_value=n_max))
    got = split(s, parts, horizon)
    want = _split_by_assignment(s, parts, horizon)
    assert len(got) == len(want) == parts
    for g, w in zip(got, want):
        assert np.array_equal(g.elements, w.elements)
        assert (g.n_max, g.descriptor) == (w.n_max, w.descriptor)


@pytest.mark.parametrize("parts", [1, 2, 5])
@pytest.mark.parametrize("horizon", [1, 37, 500])
def test_split_matches_the_oracle_below_n_max(parts, horizon):
    s = arithmetic_progression(2, 3, 500)
    for g, w in zip(split(s, parts, horizon), _split_by_assignment(s, parts, horizon)):
        assert np.array_equal(g.elements, w.elements)
        assert g.n_max == w.n_max == horizon


# ---------------------------------------------------------------------------
# Separated families


def test_diagonal_pairs_order():
    assert diagonal_pairs(6) == [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]
    pairs = diagonal_pairs(40)
    for p, (_, nu) in enumerate(pairs, start=1):
        assert nu <= p


def test_family_first_class_is_the_expected_progression():
    fam = build_separated_family(3, 100_000, 8)
    a1 = fam.set_for(1, 1)
    # depth-1 residue 1 class with multiplier 8: 8, 32, 56, ...
    assert list(a1)[:4] == [8, 32, 56, 80]
    rep = lower_density_estimate(a1, 100_000)
    assert abs(rep.lower_estimate - 1 / 24) < DENSITY_TOL


def test_family_three_pairs_densities_and_verifier():
    fam = build_separated_family(3, 100_000, 8)
    report = verify_separated_family(fam)
    assert report.passed, report.violations
    for (l, nu), rep in report.densities:
        assert rep.lower_estimate >= 0.005


def test_family_separation_brute_force():
    fam = build_separated_family(6, 4000, 8)
    items = list(fam.pairs)
    # oracle: all pairwise distances by explicit double loop
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            (_, nu_i), si = items[i]
            (_, nu_j), sj = items[j]
            for x in si:
                for y in sj:
                    assert abs(x - y) >= nu_i + nu_j
    # disjointness and the n >= nu prefix rule
    seen = set()
    for (l, nu), s in items:
        for x in s:
            assert x >= nu
            assert x not in seen
            seen.add(x)


def test_family_pruning_can_reject():
    # with multiplier 1 the depth-1 classes sit at distance 1 < nu sum
    with pytest.raises(ValueError, match="pruning"):
        build_separated_family(2, 10_000, 1)


def test_family_large_multiplier_never_prunes():
    fam = build_separated_family(6, 30_000, 8)
    for p, ((l, nu), s) in enumerate(fam.pairs, start=1):
        d = (p + 1) // 2
        r = 1 if p % 2 == 1 else 2
        start, gap = 8 * r * 3 ** (d - 1), 8 * 3 ** d
        expect = [x for x in range(start, 30_001, gap) if x >= nu]
        assert list(s) == expect


def test_family_per_level_union():
    fam = build_separated_family(6, 30_000, 8)
    a1 = fam.a_of_nu(1)
    merged = set()
    for (l, nu), s in fam.pairs:
        if nu == 1:
            merged |= set(s)
    assert set(a1) == merged
    assert fam.nu_values() == [1, 2, 3]


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=6, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_family_verifier_always_passes_for_safe_multipliers(num_pairs, mult):
    fam = build_separated_family(num_pairs, 5000, mult)
    report = verify_separated_family(fam)
    assert report.passed, report.violations


def test_family_lookup_errors():
    fam = build_separated_family(2, 1000, 8)
    with pytest.raises(KeyError):
        fam.set_for(9, 9)


# ---------------------------------------------------------------------------
# Growth criteria


# The levels that _streaming_similarity's growth must clear before its horizon.
GROWTH_THRESHOLDS = (1.0, 10.0, 100.0)


def _streaming_similarity(a, b, omega, horizon):
    """Oracle: the criterion on finite sequences up to a horizon.  The
    growth of |b_n| - omega_n |a_n| must clear every threshold before the
    horizon, and the pairwise condition is checked for all m > n up to
    it, one gap k = m - n at a time.  Returns (growth_ok, least violating
    (m, n) or None)."""
    a, b, omega = (np.asarray(x)[:horizon] for x in (a, b, omega))
    q = np.abs(b) - omega * np.abs(a)
    lasts = [np.nonzero(q <= t)[0] for t in GROWTH_THRESHOLDS]
    growth_ok = all(last.size == 0 or last[-1] + 1 < horizon for last in lasts)
    absa = np.abs(a)
    witness = None
    for k in range(1, horizon):
        if witness is not None and k >= witness[0]:
            break
        diff = np.abs(b[:-k] - b[k:])
        need = omega[k - 1] * (absa[k:] + absa[:-k])
        hits = np.flatnonzero(diff < need - 1e-9)
        if hits.size:
            n = int(hits[0]) + 1
            if witness is None or (n + k, n) < witness:
                witness = (n + k, n)
    return growth_ok, witness


def _dense_pairwise_witness(a, b, omega):
    """Reference: the pairwise check over the full n x n meshgrid."""
    horizon = b.size
    absa = np.abs(a)
    diff = np.abs(b[None, :] - b[:, None])
    need = np.zeros_like(diff)
    m_idx, n_idx = np.meshgrid(np.arange(horizon), np.arange(horizon), indexing="ij")
    gap = m_idx - n_idx
    upper = gap > 0
    need[upper] = omega[gap[upper] - 1] * (absa[m_idx[upper]] + absa[n_idx[upper]])
    bad = upper & (diff < need - 1e-9)
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(i) + 1, int(j) + 1


def test_similarity_pairwise_check_matches_dense_reference():
    # the streaming oracle on general sequences, against the full meshgrid
    rng = np.random.default_rng(20170501)
    violating = 0
    for _ in range(240):
        horizon = int(rng.integers(2, 40))
        a = rng.uniform(0.5, 1.5, horizon) * np.exp(2j * np.pi * rng.random(horizon))
        b = np.cumsum(rng.uniform(0.0, 3.0, horizon)) * np.exp(0.2j * rng.random(horizon))
        omega = np.cumsum(rng.uniform(0.0, rng.uniform(0.2, 0.7), horizon))
        if rng.random() < 0.2:
            # integer data: exact ties at the separation bound
            a = np.ones(horizon, dtype=complex)
            b = np.arange(1.0, horizon + 1.0) * rng.integers(1, 4)
            omega = np.full(horizon, 0.5 * rng.integers(1, 5))
        expected = _dense_pairwise_witness(
            a.astype(complex), b.astype(complex), omega.astype(float)
        )
        assert _streaming_similarity(a, b, omega, horizon)[1] == expected
        violating += expected is not None
    assert 80 <= violating <= 160


def _streaming_infima(b, k_max):
    """inf over n <= horizon - k of |b_{n+k} - b_n| for k <= k_max."""
    return np.array([np.min(np.abs(b[k:] - b[:-k])) for k in range(1, k_max + 1)])


def _powers(p, q, horizon):
    n = np.arange(1, horizon + 1, dtype=float)
    return np.ones(horizon), n ** p, n ** q


def _near_tie(p, q, horizon):
    """Some gap k < horizon within 1e-6 of (k + 1)^p - 1 = 2 k^q, where
    rounding may decide either way."""
    k = np.arange(1, horizon, dtype=float)
    return bool(np.any(np.abs((k + 1) ** p - 1 - 2 * k ** q) <= 1e-6 * (k + 1) ** p))


def test_similarity_criterion_passes_for_quadratic_translations():
    rep = check_similarity_criterion(2.0, 0.5)
    assert rep.passed and rep.growth_ok and rep.pairwise_ok
    assert rep.witness is None and rep.gaps == 1


def test_similarity_criterion_fails_for_slow_growth():
    rep = check_similarity_criterion(1.0, 1.0)
    assert not rep.passed and not rep.growth_ok


def test_similarity_criterion_finds_pairwise_witness():
    # (k + 1)^2 - 1 >= 2 k^3 holds at k = 1 only
    rep = check_similarity_criterion(2.0, 3.0)
    assert not rep.pairwise_ok
    assert rep.witness == (3, 1) and rep.gaps == 2
    # below p = 1 the least pair of all violates: |2^p - 1| < 2
    for p in (0.5, 0.0, -1.0):
        assert check_similarity_criterion(p, 0.0).witness == (2, 1)


def test_similarity_criterion_decides_int_ties_exactly_and_huge_exponents_fast():
    # (k + 1)^p - 1 = 2 k^q exactly at (k, p, q) = (2, 2, 2) and (2, 1, 0):
    # both gaps hold, so p = q = 2 first fails at gap 3
    assert density._gap_holds(2, 2, 2) and density._gap_holds(2, 1, 0)
    assert not density._gap_holds(3, 2, 2)
    assert check_similarity_criterion(2.0, 2.0).witness == (4, 1)
    # gap 2 fails with 2^(10^9) never formed; forming it took seconds
    start = time.perf_counter()
    rep = check_similarity_criterion(2.0, 1e9)
    # 10^308 log 3 overflows: an infinite logarithm is no tie
    assert not density._gap_holds(3, 2, 10**308)
    assert time.perf_counter() - start < 0.1
    assert rep.witness == (3, 1) and rep.gaps == 2


def test_similarity_criterion_rejects_bad_input():
    with pytest.raises(ValueError, match="nondecreasing"):
        check_similarity_criterion(2.0, -1.0)


def test_similarity_checks_only_gaps_below_two_to_the_one_over_p_minus_q():
    for p, q, gaps in ((2, 1, 1), (5, 0, 1), (2.5, 2, 3), (3.5, 3.25, 15)):
        rep = check_similarity_criterion(float(p), float(q))
        assert rep.passed and rep.gaps == gaps
        assert gaps < 2 ** (1 / (p - q)) <= gaps + 1


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_similarity_schedule_failing_at_one_gap_fails_with_its_witness(p):
    # gap k satisfies (k + 1)^p - 1 >= 2 k^q iff q <= Q(k); just above the
    # least Q(k), gap k alone fails, and its witness is (k + 1, 1)
    k = np.arange(2, 400, dtype=float)
    cut = np.log(((k + 1) ** p - 1) / 2) / np.log(k)
    lowest, second = np.sort(cut)[:2]
    q = float((lowest + second) / 2)
    failing = [int(g) for g in k[cut < q]]
    assert len(failing) == 1 and 2 ** (1 / (p - q)) < 400
    rep = check_similarity_criterion(p, q)
    assert not rep.passed and rep.witness == (failing[0] + 1, 1)
    assert rep.gaps == failing[0]
    horizon = 2 * failing[0] + 2
    assert _streaming_similarity(*_powers(p, q, horizon), horizon)[1] == rep.witness


@given(
    p=st.one_of(st.integers(1, 6).map(float), st.floats(1.0, 6.0)),
    q=st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 6.0)),
    horizon=st.integers(2, 120),
)
@settings(max_examples=150, deadline=None)
def test_similarity_closed_form_matches_the_streaming_loops(p, q, horizon):
    if not (float(p).is_integer() and float(q).is_integer()):
        assume(not _near_tie(p, q, horizon))
    rep = check_similarity_criterion(p, q)
    growth_ok, witness = _streaming_similarity(*_powers(p, q, horizon), horizon)
    assert rep.growth_ok == (p > q)
    # the loop sees the growth clear 100 only when it does before the horizon
    assert growth_ok == (p > q and horizon ** p - horizon ** q > 100.0)
    if rep.witness is not None and rep.witness[0] <= horizon:
        assert witness == rep.witness
    else:
        assert witness is None
    k_max = min(200, horizon // 2)
    if k_max >= 1:
        sep = check_translation_separation(p, horizon)
        assert sep.passed
        want = _streaming_infima(_powers(p, q, horizon)[1], k_max)
        assert np.allclose(sep.infima, want, rtol=1e-12, atol=0.0)


def test_translation_separation_quadratic():
    rep = check_translation_separation(2.0, horizon=1000)
    assert rep.passed and not rep.slow_growth
    assert rep.k_max == 200
    # inf over n of (n+k)^2 - n^2 is attained at n = 1
    for k, value in enumerate(rep.infima, start=1):
        assert value == k * (k + 2)


def test_translation_separation_linear_is_slow():
    rep = check_translation_separation(1.0, horizon=1000)
    assert rep.passed and rep.slow_growth
    # the infima k reach the slow-growth level 100 at k = 100, half of k_max
    assert sum(x <= density.SLOW_GROWTH_LEVEL for x in rep.infima) == 100


def test_translation_separation_bounded_fails():
    # (n + k)^p - n^p tends to 0 in n for p < 1, so every infimum is 0
    rep = check_translation_separation(0.5, horizon=600)
    assert not rep.passed and set(rep.infima) == {0.0}


def test_translation_separation_rejects_bad_k_max():
    # k_max = min(200, horizon // 2) must be at least 1
    with pytest.raises(ValueError, match="horizon of at least 2"):
        check_translation_separation(1.0, horizon=1)


def test_growth_thresholds_are_increasing():
    assert list(GROWTH_THRESHOLDS) == sorted(GROWTH_THRESHOLDS)
    assert len(GROWTH_THRESHOLDS) == 3
