"""Index sets, finite-horizon densities, splitting, and separated families.

The lower density of a set A of positive integers is
liminf_n card(A intersect [1, n]) / n.  At a finite horizon it is
estimated by the minimum prefix ratio beyond a burn-in index; the upper
variant takes the maximum.  Estimates are labelled as such and never
presented as limits.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ._record import record
from .geometry import _sorted_unique

__all__ = [
    "DensityReport",
    "FamilyReport",
    "IndexSet",
    "SeparatedFamily",
    "SimilarityCriterionReport",
    "TranslationSeparationReport",
    "arithmetic_progression",
    "build_separated_family",
    "check_similarity_criterion",
    "check_translation_separation",
    "diagonal_pairs",
    "lower_density_estimate",
    "naturals",
    "separation_gaps",
    "split",
    "split_assignment",
    "verify_separated_family",
]

# check_translation_separation flags slow growth when the infima stay at
# or below this level into the upper half of its gaps.
SLOW_GROWTH_LEVEL = 100.0
# Most points build_separated_family enumerates in one period of a class;
# the first, largest class holds 3^(ceil(P/2) - 1) of them for P pairs.
MAX_PERIOD_POINTS = 1 << 20
# lower_density_estimate takes the window's ratios this many elements at a
# time, so its temporaries are a few arrays of this length.
DENSITY_BLOCK = 1 << 14


def _default_burn_in(horizon: int) -> int:
    return max(1, horizon // 5)


@record(eq=False)
class IndexSet:
    """A strictly increasing set of positive integers known up to n_max."""

    elements: np.ndarray
    n_max: int
    descriptor: Optional[str] = None
    closed_form_density: Optional[float] = None

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "elements", els)
        if els.size:
            if els[0] < 1:
                raise ValueError("index sets contain positive integers only")
            if np.any(els[1:] <= els[:-1]):
                raise ValueError("elements must be strictly increasing")
            if els[-1] > self.n_max:
                raise ValueError("element beyond the stated horizon n_max")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    def __len__(self) -> int:
        return int(self.elements.size)

    def __iter__(self):
        return iter(int(x) for x in self.elements)

    def __contains__(self, n: int) -> bool:
        i = np.searchsorted(self.elements, n)
        return i < self.elements.size and self.elements[i] == n

    def count_up_to(self, n) -> np.ndarray:
        """card(A intersect [1, n]), vectorized over n."""
        return np.searchsorted(self.elements, np.asarray(n), side="right")

    @staticmethod
    def from_elements(elements, n_max: Optional[int] = None, descriptor: Optional[str] = None,
                      closed_form_density: Optional[float] = None) -> "IndexSet":
        els = _sorted_unique(np.asarray(list(elements), dtype=np.int64))
        if n_max is None:
            n_max = int(els[-1]) if els.size else 1
        return IndexSet(els, n_max, descriptor, closed_form_density)


def naturals(n_max: int) -> IndexSet:
    return IndexSet(np.arange(1, n_max + 1, dtype=np.int64), n_max, "naturals", 1.0)


def arithmetic_progression(first: int, step: int, n_max: int) -> IndexSet:
    """{first, first + step, ...} up to n_max, with exact density 1/step."""
    if first < 1 or step < 1:
        raise ValueError("first and step must be positive")
    els = np.arange(first, n_max + 1, step, dtype=np.int64)
    return IndexSet(els, n_max, f"ap({first},{step})", 1.0 / step)


@record
class DensityReport:
    """Finite-horizon density estimates for one index set.

    lower_estimate and upper_estimate are the extreme prefix ratios
    card(A intersect [1, n]) / n over burn_in <= n <= horizon.
    """

    lower_estimate: float
    upper_estimate: float
    burn_in: int
    horizon: int
    empty: bool
    closed_form: Optional[float] = None
    checkpoints: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.lower_estimate <= self.upper_estimate <= 1.0 + 1e-12):
            raise ValueError("density estimates must satisfy 0 <= lower <= upper <= 1")


def lower_density_estimate(a: IndexSet, horizon: int, burn_in: Optional[int] = None) -> DensityReport:
    """Minimum (and maximum) prefix ratio beyond the burn-in.

    burn_in defaults to horizon // 5.  The horizon may not exceed the
    set's stated n_max, since membership beyond it is unknown.

    The count is constant between consecutive elements, so on each such
    run count / n is extremal at the run's ends: the ratios are taken
    only at burn_in, at e - 1 and e for each element e in the window,
    and at the horizon.  An element of rank r has count r - 1 at e - 1
    and r at e, so the window's ratios come from the ranks alone, one
    DENSITY_BLOCK of elements at a time.
    """
    if horizon < 1 or horizon > a.n_max:
        raise ValueError(f"horizon must lie in [1, {a.n_max}]")
    if burn_in is None:
        burn_in = _default_burn_in(horizon)
    if not (1 <= burn_in <= horizon):
        raise ValueError("burn_in must lie in [1, horizon]")
    els = a.elements
    first, last = (int(i) for i in a.count_up_to([burn_in, horizon]))
    lower = min(first / burn_in, last / horizon)
    upper = max(first / burn_in, last / horizon)
    for start in range(first, last, DENSITY_BLOCK):
        block = els[start : min(start + DENSITY_BLOCK, last)]
        below = np.arange(start, start + block.size, dtype=np.int64)
        for ratios in (below / (block - 1), (below + 1) / block):
            lower = min(lower, float(ratios.min()))
            upper = max(upper, float(ratios.max()))
    marks = _sorted_unique(
        np.clip(
            np.round(np.logspace(math.log10(burn_in), math.log10(horizon), 33)),
            burn_in,
            horizon,
        ).astype(np.int64)
    )
    checkpoints = tuple(
        (int(n), float(r)) for n, r in zip(marks, a.count_up_to(marks) / marks)
    )
    return DensityReport(
        lower_estimate=lower,
        upper_estimate=upper,
        burn_in=burn_in,
        horizon=horizon,
        empty=last == 0,
        closed_form=a.closed_form_density,
        checkpoints=checkpoints,
    )


# ---------------------------------------------------------------------------
# Rank splitting


def split_assignment(k: int) -> int:
    """Subsequence index for rank k in the dyadic splitting.

    Rank k goes to part j exactly when k = 2^(j-1) (2m + 1); equivalently
    j - 1 is the number of trailing zero bits of k.  Odd ranks go to
    part 1, ranks 2, 6, 10, ... to part 2, ranks 4, 12, 20, ... to
    part 3, and so on: part j receives a set of rank density 2^-j.
    """
    if k < 1:
        raise ValueError("ranks are positive integers")
    return (k & -k).bit_length()


def split(a: IndexSet, parts: int, horizon: int) -> list:
    """Split a into parts by rank; the last part absorbs higher indices.

    Part j < parts holds the elements whose rank assignment equals j,
    the ranks 2^(j-1) (2m + 1); part `parts` takes every rank whose
    assignment is >= parts, the multiples of 2^(parts-1).  Each part is
    a strided slice of a's elements up to the horizon, and the parts
    partition a up to the horizon.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    els = a.elements[: np.searchsorted(a.elements, horizon, side="right")]
    base = a.descriptor or "set"
    return [
        IndexSet(
            els[(1 << (j - 1)) - 1 :: 1 << min(j, parts - 1)],
            min(horizon, a.n_max),
            f"{base}|part{j}of{parts}",
        )
        for j in range(1, parts + 1)
    ]


# ---------------------------------------------------------------------------
# Separated families


def diagonal_pairs(num: int) -> list:
    """The first `num` labels (l, nu) in anti-diagonal order.

    Enumeration runs (1,1), (2,1), (1,2), (3,1), (2,2), (1,3), ... so
    the p-th label always has nu <= p.
    """
    out = []
    s = 2
    while len(out) < num:
        for nu in range(1, s):
            out.append((s - nu, nu))
            if len(out) == num:
                break
        s += 1
    return out


def _residue_class(p: int, m: int):
    """(start, gap) of the base-3 residue class assigned to the p-th label.

    Classes are drawn two per 3-adic depth: label p uses depth
    d = ceil(p/2) and residue r = 1 (p odd) or r = 2 (p even), giving
    the progression m (r 3^(d-1) + j 3^d).  Distinct labels receive
    disjoint classes for every positive multiplier m.
    """
    d = (p + 1) // 2
    r = 1 if p % 2 == 1 else 2
    return m * r * 3 ** (d - 1), m * 3 ** d


@record
class SeparatedFamily:
    """Disjoint index sets A(l, nu) with |n - m| >= nu + mu across sets."""

    pairs: tuple  # of ((l, nu), IndexSet)
    horizon: int
    m_multiplier: int
    report: Optional["FamilyReport"] = None  # verify_separated_family's, from the build

    def labels(self) -> list:
        return [label for label, _ in self.pairs]

    def set_for(self, l: int, nu: int) -> IndexSet:
        for (ll, nn), s in self.pairs:
            if (ll, nn) == (l, nu):
                return s
        raise KeyError(f"no member with label ({l}, {nu})")

    def nu_values(self) -> list:
        return sorted({nu for (_, nu), _ in self.pairs})

    def a_of_nu(self, nu: int) -> IndexSet:
        """Union over l of A(l, nu), the per-level hit schedule."""
        parts = [s.elements for (_, nn), s in self.pairs if nn == nu]
        if not parts:
            return IndexSet(np.empty(0, dtype=np.int64), self.horizon, f"A({nu})")
        return IndexSet(
            _sorted_unique(np.concatenate(parts)), self.horizon, f"A(nu={nu})"
        )


def _survivors(xs: np.ndarray, p: int, nus: Sequence[int], m: int) -> np.ndarray:
    """Mask of the elements xs of class p that lie at modular distance at
    least nu(p) + nu(q) from every later class q > p."""
    alive = np.ones(xs.shape, dtype=bool)
    for q in range(p + 1, len(nus) + 1):
        sq, gq = _residue_class(q, m)
        r = (xs - sq) % gq
        alive &= np.minimum(r, gq - r) >= nus[p - 1] + nus[q - 1]
    return alive


def _surviving_density(p: int, nus: Sequence[int], m: int) -> float:
    """Exact asymptotic density of class p after pruning against q > p.

    All classes are unions of full arithmetic progressions, so pruning is
    periodic with period the largest modulus; one period is checked by
    exact modular distances.
    """
    P = len(nus)
    start, gap = _residue_class(p, m)
    period = m * 3 ** ((P + 1) // 2)
    max_dist = max((nus[p - 1] + nus[q - 1] for q in range(p + 1, P + 1)), default=0)
    if period <= 2 * max_dist:
        # Period too small for the window argument; report zero so the
        # caller rejects the configuration.
        return 0.0
    xs = np.arange(start, start + period, gap, dtype=np.int64)
    return float(_survivors(xs, p, nus, m).sum()) / period


def build_separated_family(num_pairs: int, horizon: int, m_multiplier: int) -> SeparatedFamily:
    """Construct pairwise separated index sets from base-3 residue classes.

    The p-th label (l, nu) in diagonal order receives a residue class of
    step m 3^d; elements of lower-indexed classes within distance
    nu(p) + nu(q) of a later class are pruned, as are elements below nu.
    The construction is rejected when one period of the first class holds
    more than MAX_PERIOD_POINTS points or when the exact post-pruning density
    of any class vanishes, and the result is always run through
    verify_separated_family, whose report it carries.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    if m_multiplier < 1:
        raise ValueError("m_multiplier must be at least 1")
    depth = (num_pairs + 1) // 2 - 1
    if 3 ** min(depth, MAX_PERIOD_POINTS.bit_length()) > MAX_PERIOD_POINTS:
        raise ValueError(
            f"family.pairs: {num_pairs} pairs enumerate 3^{depth} points in one"
            f" period of the first class, more than {MAX_PERIOD_POINTS}"
        )
    labels = diagonal_pairs(num_pairs)
    nus = [nu for (_, nu) in labels]
    for p in range(1, num_pairs + 1):
        if _surviving_density(p, nus, m_multiplier) <= 0.0:
            raise ValueError(
                f"pruning clears class {p}; increase m_multiplier"
            )
    members = []
    for p, (l, nu) in enumerate(labels, start=1):
        start, gap = _residue_class(p, m_multiplier)
        els = np.arange(start, horizon + 1, gap, dtype=np.int64)
        els = els[_survivors(els, p, nus, m_multiplier) & (els >= nu)]
        members.append(
            ((l, nu), IndexSet(els, horizon, f"A(l={l},nu={nu})"))
        )
    family = SeparatedFamily(tuple(members), horizon, m_multiplier)
    report = verify_separated_family(family)
    if not report.passed:
        raise RuntimeError(
            "separated-family construction failed its own verifier: "
            + "; ".join(report.violations)
        )
    return SeparatedFamily(family.pairs, horizon, m_multiplier, report)


@record
class FamilyReport:
    passed: bool
    violations: tuple
    densities: tuple  # of ((l, nu), DensityReport)


def _min_cross_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Minimum |x - y| over x in a, y in b (both sorted, nonempty)."""
    idx = np.searchsorted(b, a)
    best = np.iinfo(np.int64).max
    left = idx > 0
    if left.any():
        best = min(best, int(np.min(a[left] - b[idx[left] - 1])))
    right = idx < b.size
    if right.any():
        best = min(best, int(np.min(b[idx[right]] - a[right])))
    return best


def verify_separated_family(family: SeparatedFamily, burn_in: Optional[int] = None) -> FamilyReport:
    """Brute-force check of the separation and positivity requirements.

    Verifies n >= nu inside each set, the within-set gap >= 2 nu, the
    cross-set gap >= nu + mu, pairwise disjointness, and positive
    lower-density estimates at the family horizon.
    """
    violations = []
    densities = []
    items = list(family.pairs)
    for (l, nu), s in items:
        if len(s) == 0:
            violations.append(f"A(l={l},nu={nu}) is empty")
            densities.append(((l, nu), None))
            continue
        if int(s.elements[0]) < nu:
            violations.append(f"A(l={l},nu={nu}) starts below nu")
        if s.elements.size > 1 and int(np.min(np.diff(s.elements))) < 2 * nu:
            violations.append(f"A(l={l},nu={nu}) violates its own separation")
        rep = lower_density_estimate(s, family.horizon, burn_in)
        densities.append(((l, nu), rep))
        if rep.lower_estimate <= 0.0:
            violations.append(f"A(l={l},nu={nu}) has vanishing density estimate")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (_, nu_i), si = items[i]
            (_, nu_j), sj = items[j]
            if len(si) == 0 or len(sj) == 0:
                continue
            d = _min_cross_distance(si.elements, sj.elements)
            if d < nu_i + nu_j:
                violations.append(
                    f"pair {items[i][0]} / {items[j][0]} at distance {d}"
                )
    return FamilyReport(not violations, tuple(violations), tuple(densities))


# ---------------------------------------------------------------------------
# Growth criteria of the translation family b_n = n^p


def _exponent(p: float):
    """p as an int when it is one, so that powers of ints stay exact."""
    return int(p) if float(p).is_integer() else float(p)


def _gap_holds(k: int, p, q) -> bool:
    """(k + 1)^p - 1 >= 2 k^q in logarithms, where no power overflows; int
    exponents whose finite logarithms tie within 2^-40, past their
    rounding, in exact integers, so that no other case forms the powers."""
    lhs, rhs = p * math.log(k + 1), float(np.logaddexp(math.log(2.0) + q * math.log(k), 0.0))
    near = abs(lhs - rhs) <= 2.0 ** -40 * (1.0 + abs(lhs) + abs(rhs)) < math.inf
    if near and isinstance(p, int) and isinstance(q, int):
        return (k + 1) ** p - 1 >= 2 * k ** q
    return lhs >= rhs


@record
class SimilarityCriterionReport:
    passed: bool
    growth_ok: bool
    pairwise_ok: bool
    gaps: int  # the gaps k = 1..gaps decide the pairwise check
    witness: Optional[tuple]


def check_similarity_criterion(p: float, q: float) -> SimilarityCriterionReport:
    """The similarity-family runaway criterion for a_n = 1, b_n = n^p and
    omega_k = k^q, decided for every n.

    (i) Growth: |b_n| - omega_n |a_n| = n^p - n^q increases to infinity
    iff p > q.  (ii) Pairwise separation, |b_m - b_n| >= omega_{m-n}
    (|a_m| + |a_n|) for all m > n.  For p >= 1, (n + k)^p - n^p does not
    decrease in n at a fixed gap k = m - n, so (ii) holds iff
    (k + 1)^p - 1 >= 2 k^q for every k >= 1, and the lexicographically
    least violating pair is (k + 1, 1) at the least failing gap k.  Gaps
    are scanned from k = 1 until one fails or k^(p - q) >= 2, past which
    (k + 1)^p - 1 >= k^p >= 2 k^q: for p > q only k < 2^(1/(p - q)) are
    checked, k = 1 alone for integers, and for p <= q some gap fails.
    For p < 1 the first gap fails, as |2^p - 1| < 2, and (2, 1) is the
    least pair of all.  Integer exponents are decided in exact integers,
    others in double precision.  q < 0, a decreasing omega, is refused.
    """
    if q < 0:
        raise ValueError("omega must be nondecreasing: need q >= 0")
    p, q = _exponent(p), _exponent(q)
    k, witness = 1, None
    # k^(p - q) >= 2 in floats: a gap that it misjudges holds with room
    while not (p > q and (p - q) * math.log(k) >= math.log(2.0)):
        if not _gap_holds(k, p, q):
            witness = (k + 1, 1)
            break
        k += 1
    growth_ok = p > q
    return SimilarityCriterionReport(
        passed=growth_ok and witness is None,
        growth_ok=growth_ok,
        pairwise_ok=witness is None,
        gaps=k if witness else k - 1,
        witness=witness,
    )


@record
class TranslationSeparationReport:
    passed: bool
    slow_growth: bool
    k_max: int
    infima: tuple


def separation_gaps(horizon: int) -> int:
    """The largest gap k_max = min(200, horizon // 2) whose infimum
    check_translation_separation reports at this horizon."""
    return min(200, horizon // 2)


def check_translation_separation(p: float, horizon: int) -> TranslationSeparationReport:
    """inf_n |b_{n+k} - b_n| -> infinity as k grows, for b_n = n^p.

    For p >= 1 the infimum over all n is (k + 1)^p - 1, attained at n = 1
    and increasing to infinity, so the criterion passes; for p < 1 the
    differences at a fixed gap tend to 0, so every infimum is 0 and it
    fails.  The report lists the infima for k <= k_max =
    separation_gaps(horizon), exact for an integer p before their
    conversion to float.  Slow growth is flagged when the infima stay at
    or below SLOW_GROWTH_LEVEL into the upper half of that k range.
    """
    k_max = separation_gaps(horizon)
    if k_max < 1:
        raise ValueError(f"need a horizon of at least 2, got {horizon}")
    p = _exponent(p)
    passed = p >= 1
    infima = tuple(float((k + 1) ** p - 1) if passed else 0.0 for k in range(1, k_max + 1))
    # the infima never decrease in k, so a count of those at or below the level is the last k
    last = sum(x <= SLOW_GROWTH_LEVEL for x in infima)
    return TranslationSeparationReport(
        passed=passed,
        slow_growth=passed and last >= k_max / 2,
        k_max=k_max,
        infima=infima,
    )
