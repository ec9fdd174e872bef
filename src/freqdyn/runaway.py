"""Runaway-condition checkers and finite Carleman-style truncations.

A schedule of self-maps escapes in the weak sense when the indices n
with K disjoint from phi_n(K) carry positive density for every compact
K.  The strong form asks for an exhaustion (K_nu) and index sets A(nu)
such that (P1) each A(nu) has positive lower density, (P2) the A(nu)
and the image islands phi_n(K_nu) are pairwise disjoint, and (P3) any
fixed compact meets only finitely many islands.  All three are checked
here at a finite horizon, with certified enclosing discs standing in
for the images.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ._record import record
from .density import DensityReport, IndexSet, lower_density_estimate
from .geometry import (
    ClosedDisc,
    CompactSet,
    Domain,
    Exhaustion,
    clear_of,
    disc_pairs,
    discs_inside,
    enclosing_disc,
    lies_in,
)
from .maps import (
    HoloMap,
    Identity,
    Mobius,
    _image_disc,
    _image_discs,
    image_enclosing_disc,
    iterate,
    map_domain,
    maps_into,
)

__all__ = [
    "CarlemanTruncation",
    "HorizonExhausted",
    "Island",
    "Islands",
    "RunawayConfig",
    "StrongRunawayReport",
    "WeakRunawayReport",
    "build_carleman_truncation",
    "check_strong_runaway",
    "check_weak_runaway",
    "collect_islands",
    "powers_of_two_schedule",
]

# Indices per block in which weak runaway and collect_islands build maps.
INDEX_BLOCK = 1024


class HorizonExhausted(RuntimeError):
    """No admissible truncation level exists within the inspected horizon.

    Raised when every inspected level still carries an island meeting a
    base compact.  This reports the finiteness of the experiment, not a
    property of the underlying map sequence.
    """


class powers_of_two_schedule:
    """The classical negative control: iterates at n = 2^k, identity elsewhere.

    The escape times of this schedule are contained in the powers of
    two, a set of zero density, so no density-based runaway property
    can hold even though the orbit escapes along the subsequence.
    `moving` lists those powers of two, the only indices at which
    check_weak_runaway has anything to decide.
    """

    def __init__(self, base: HoloMap):
        self.base = base
        self.ident = Identity(map_domain(base))

    def __call__(self, n: int) -> HoloMap:
        if n >= 2 and (n & (n - 1)) == 0:
            return iterate(self.base, n.bit_length() - 1)
        return self.ident

    def moving(self, horizon: int) -> np.ndarray:
        """The indices n <= horizon where the schedule is not the identity:
        2, 4, 8, ... as int64, empty when horizon is 1."""
        return 2 ** np.arange(1, int(horizon).bit_length(), dtype=np.int64)


@record
class WeakRunawayReport:
    escape_set: IndexSet
    density: DensityReport


def check_weak_runaway(
    maps_schedule: Callable[[int], HoloMap],
    k: CompactSet,
    horizon: int,
) -> WeakRunawayReport:
    """Density report of {n <= horizon : K and phi_n(K) certified disjoint}.

    Disjointness is decided between the enclosing discs of K and of
    phi_n(K), so an index whose discs meet counts as not escaped and the
    reported escape set is an under-approximation.  An empty K is
    refused: its enclosing disc would stand in for a set with nothing
    in it.

    A schedule with a ``moving(horizon)`` method, the increasing indices
    n <= horizon at which phi_n is not the identity (powers_of_two_schedule
    has one), is decided at those indices only: the identity's image disc
    is K's own enclosing disc, which meets itself, so no other index
    escapes.  A schedule without the method is decided at every index.
    The indices are taken INDEX_BLOCK at a time, their image discs by
    _block_discs, and tested against K by clear_of, which gives the
    verdict of disjointness.  A block holding a disc that is not finite
    is passed map by map to image_enclosing_disc.  So the escape set is
    the one image_enclosing_disc and disjointness give index by index,
    and an error is raised at the first index that raises one.  Domain
    inclusion is left to the caller (maps.maps_into).
    """
    if k.is_empty:
        raise ValueError(f"weak runaway needs a nonempty compact; {k} is empty")
    escape_set = IndexSet(_escape_times(maps_schedule, horizon, k), horizon, "escape-times")
    return WeakRunawayReport(
        escape_set=escape_set,
        density=lower_density_estimate(escape_set, horizon),
    )


def _escape_times(maps_schedule, horizon: int, k: CompactSet) -> np.ndarray:
    """The indices n <= horizon whose image disc of K clears K, decided
    as check_weak_runaway describes."""
    moving = getattr(maps_schedule, "moving", None)
    indices = np.arange(1, horizon + 1, dtype=np.int64) if moving is None else moving(horizon)
    escaped = np.zeros(indices.size, dtype=bool)
    for s in range(0, indices.size, INDEX_BLOCK):
        ms = [maps_schedule(n) for n in indices[s:s + INDEX_BLOCK].tolist()]
        centers, radii = _block_discs(ms, k)
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            for m in ms:  # raises at the first map whose disc is not finite
                image_enclosing_disc(m, k)
        escaped[s:s + len(ms)] = clear_of(centers, radii, k)
    return indices[escaped]


def _block_discs(ms: list, source: CompactSet) -> tuple:
    """(centers, radii) of the image discs of source under the maps ms, as
    image_enclosing_disc gives them and not finite where it raises for an
    overflow or a pole: the array rule of maps._image_discs for a block of
    Mobius records, else maps._image_disc map by map."""
    enc = enclosing_disc(source)
    z0, r = complex(enc.center), enc.radius
    if all(isinstance(m, Mobius) for m in ms):
        a, b, c, d = np.array([(m.a, m.b, m.c, m.d) for m in ms], dtype=complex).T
        return _image_discs(a, b, c, d, z0, r)
    discs = np.array([_image_disc(m, z0, r) for m in ms], dtype=complex)
    return discs[:, 0], discs[:, 1].real


@record
class RunawayConfig:
    """One strong-runaway experiment: maps, exhaustion, index family, horizons."""

    domain: Domain
    maps: Callable[[int], HoloMap]
    exhaustion: Exhaustion
    family: Callable[[int], IndexSet]
    n_max: int
    nu_max: int

    def __post_init__(self):
        if self.n_max < 1 or self.nu_max < 1:
            raise ValueError("horizons must be positive")
        if self.exhaustion.domain != self.domain:
            raise ValueError("exhaustion does not live on the configured domain")


@record
class Island:
    """One image set phi_n(K_nu) together with its certified disc bound."""

    n: int
    nu: int
    map: HoloMap
    source: CompactSet
    image_bound: ClosedDisc


@record(eq=False)
class Islands:
    """The islands of collect_islands as arrays, in collection order.

    Entry i is the island (n[i], nu[i]) with image disc of centre
    centers[i] and radius radii[i].  len() counts the islands; indexing
    and iteration build Island records on demand from the schedule and
    the exhaustion.
    """

    n: np.ndarray  # int64
    nu: np.ndarray  # int64
    centers: np.ndarray  # complex
    radii: np.ndarray  # float
    maps: Callable[[int], HoloMap]
    exhaustion: Exhaustion

    def __len__(self) -> int:
        return int(self.n.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        n, nu = int(self.n[i]), int(self.nu[i])
        disc = ClosedDisc(complex(self.centers[i]), float(self.radii[i]))
        return Island(n, nu, self.maps(n), self.exhaustion.member(nu), disc)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def label(self, i: int) -> tuple:
        return (int(self.n[i]), int(self.nu[i]))


def collect_islands(cfg: RunawayConfig) -> Islands:
    """All islands (n in A(nu), nu <= nu_max) with closed-form image discs.

    Each image bound is maps.image_enclosing_disc of K_nu.  Rejects the
    configuration at the first phi_n that maps.maps_into refuses for
    K_nu, since every later certificate would be about a map outside the
    declared class.  A level is taken INDEX_BLOCK indices at a time, its
    discs by _block_discs.  A block passes when each disc lies in the
    domain (geometry.discs_inside) and K_nu in each map's domain; any
    other block is decided map by map by maps_into, which takes an
    identity's image to be K_nu itself.
    """
    ns, nus = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    centers, radii = [np.empty(0, dtype=complex)], [np.empty(0, dtype=float)]
    for nu in range(1, cfg.nu_max + 1):
        source = cfg.exhaustion.member(nu)
        level = cfg.family(nu).elements
        level = level[: np.searchsorted(level, cfg.n_max, side="right")]
        for s in range(0, level.size, INDEX_BLOCK):
            block = level[s:s + INDEX_BLOCK]
            ms = [cfg.maps(n) for n in block.tolist()]
            c, r = _block_discs(ms, source)
            kinds = {map_domain(m).kind for m in ms}
            if not (discs_inside(cfg.domain, c, r).all()
                    and all(lies_in(Domain(kind), source) for kind in kinds)):
                for n, m in zip(block.tolist(), ms):
                    if not maps_into(m, cfg.domain, source):
                        raise ValueError(f"map at index {n} does not send level {nu} into the domain")
            ns.append(block)
            nus.append(np.full(block.size, nu, dtype=np.int64))
            centers.append(c)
            radii.append(r)
    return Islands(
        n=np.concatenate(ns),
        nu=np.concatenate(nus),
        centers=np.concatenate(centers),
        radii=np.concatenate(radii),
        maps=cfg.maps,
        exhaustion=cfg.exhaustion,
    )


@record
class StrongRunawayReport:
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    densities: tuple  # of (nu, DensityReport)
    p1_witness: Optional[int]
    p2_index_witness: Optional[tuple]  # (nu, mu, shared index)
    p2_disc_witness: Optional[tuple]  # ((n, nu), (m, mu))
    disc_gap: float  # least |c_i - c_j| - (r_i + r_j); inf below two islands
    disc_gap_pair: Optional[tuple]  # ((n, nu), (m, mu)) attaining disc_gap
    disc_pairs_checked: int
    probes: tuple  # of (mu, offender count, largest offending n)
    p3_witness: Optional[int]
    islands: Islands

    @property
    def passed(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok


def check_strong_runaway(cfg: RunawayConfig) -> StrongRunawayReport:
    """Finite-horizon verdicts for (P1), (P2), (P3) with witnesses.

    (P2) decides the certified image discs of every island pair by the
    sweep of `disc_pairs`, in memory O(islands); the disc witness is the
    first meeting pair in island order, and the report also carries the
    least disc gap and its pair.

    (P3) is a proxy: per probe compact K_mu the offending islands are
    counted and the check passes only when some inspected island lies
    beyond the largest offender, i.e. the inspected tail is clean.
    """
    densities = []
    p1_ok = True
    p1_witness = None
    sets = {}
    for nu in range(1, cfg.nu_max + 1):
        a = cfg.family(nu)
        sets[nu] = a
        rep = lower_density_estimate(a, min(cfg.n_max, a.n_max))
        densities.append((nu, rep))
        if rep.lower_estimate <= 0.0 and p1_witness is None:
            p1_ok = False
            p1_witness = nu

    p2_index_witness = None
    for nu in range(1, cfg.nu_max + 1):
        for mu in range(nu + 1, cfg.nu_max + 1):
            common = np.intersect1d(sets[nu].elements, sets[mu].elements, assume_unique=True)
            if common.size:
                p2_index_witness = (nu, mu, int(common[0]))
                break
        if p2_index_witness:
            break

    islands = collect_islands(cfg)
    centers, radii = islands.centers, islands.radii
    first_bad, disc_gap, closest, checked = disc_pairs(centers, radii)

    def labels(pair):
        return None if pair is None else tuple(map(islands.label, pair))

    p2_disc_witness = labels(first_bad)
    p2_ok = p2_index_witness is None and p2_disc_witness is None

    ns = islands.n
    probes = []
    p3_ok = True
    p3_witness = None
    for mu in range(1, cfg.nu_max + 1):
        offenders = ns[~clear_of(centers, radii, cfg.exhaustion.member(mu))]
        last = int(offenders.max(initial=0))
        probes.append((mu, int(offenders.size), last))
        if offenders.size and not np.any(ns > last):
            p3_ok = False
            if p3_witness is None:
                p3_witness = mu

    return StrongRunawayReport(
        p1_ok=p1_ok,
        p2_ok=p2_ok,
        p3_ok=p3_ok,
        densities=tuple(densities),
        p1_witness=p1_witness,
        p2_index_witness=p2_index_witness,
        p2_disc_witness=p2_disc_witness,
        disc_gap=disc_gap,
        disc_gap_pair=labels(closest),
        disc_pairs_checked=checked,
        probes=tuple(probes),
        p3_witness=p3_witness,
        islands=islands,
    )


@record
class CarlemanTruncation:
    """Finite stand-in for the union of base compacts and escaped islands."""

    bases: tuple  # of CompactSet
    islands: tuple  # of Island
    k_base: int
    domain: Domain

    def __post_init__(self):
        for isl in self.islands:
            if isl.nu < self.k_base:
                raise ValueError("island below the truncation level")


def build_carleman_truncation(
    cfg: RunawayConfig,
    bases: int,
    max_islands: int,
    report: Optional[StrongRunawayReport] = None,
) -> CarlemanTruncation:
    """Base compacts K_1..K_bases plus islands from levels >= k_base.

    k_base is the least level such that every inspected island at that
    level or above clears all base compacts; it is computed, never
    supplied.  Islands are then taken in increasing schedule order up
    to max_islands.  Their image discs are kept as computed: pairwise
    disjoint by P2 and clear of the bases by the choice of k_base.
    """
    if bases < 0 or bases > cfg.nu_max:
        raise ValueError("bases must lie in [0, nu_max]")
    if max_islands < 1:
        raise ValueError("max_islands must be positive")
    if report is None:
        report = check_strong_runaway(cfg)
    if not report.passed:
        failed = [
            name
            for name, ok in (("P1", report.p1_ok), ("P2", report.p2_ok), ("P3", report.p3_ok))
            if not ok
        ]
        raise ValueError(f"strong-runaway precondition failed: {', '.join(failed)}")

    base_sets = tuple(cfg.exhaustion.member(mu) for mu in range(1, bases + 1))

    islands = report.islands
    clears = np.ones(len(islands), dtype=bool)
    for b in base_sets:
        clears &= clear_of(islands.centers, islands.radii, b)
    k_base = int(islands.nu[~clears].max(initial=0)) + 1
    if k_base > cfg.nu_max:
        raise HorizonExhausted(
            "every inspected level keeps an island meeting a base compact; "
            "enlarge nu_max or the horizon"
        )

    eligible = np.flatnonzero(islands.nu >= k_base)
    order = np.lexsort((islands.nu[eligible], islands.n[eligible]))
    chosen = tuple(islands[int(i)] for i in eligible[order[:max_islands]])

    return CarlemanTruncation(
        bases=base_sets,
        islands=chosen,
        k_base=k_base,
        domain=cfg.domain,
    )
