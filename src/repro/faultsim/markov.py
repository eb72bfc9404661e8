"""Closed-form Markov-chain lifetime solver: the ``analytical`` backend.

Where the Monte-Carlo engine (:mod:`repro.faultsim.simulator`)
*samples* system lifetimes, this module *integrates* them.  For each
protection scheme it builds a small discrete-time Markov chain over
the number of alive faults in one memory channel (channels share no
faults, so the per-channel chains are exactly independent), steps
that chain through the simulated lifetime
with numpy matrix powers, and reads DUE/SDC probabilities directly
off the chain's absorbing states — milliseconds per configuration
instead of seconds-to-minutes, with no sampling noise.

The chain's transition structure comes from the same inputs the
Monte-Carlo sampler uses: the :class:`~repro.faultsim.fault_models.
FitTable` mode mix, the :class:`~repro.faultsim.scaling.
ScalingFaultModel` promotion probability, and the mask/value address
geometry of :class:`~repro.faultsim.fault.FaultSpace`.  Collisions
between fault classes reduce to closed-form address-overlap
probabilities (one ``2**-k`` term per jointly-fixed address bit), so
the per-arrival absorption probabilities are exact given the state.

The full derivation — state space, transition and repair (scrub)
matrices, quantization assumptions, known approximations, and the
contract for when to trust this backend over Monte-Carlo — lives in
``docs/theory.md``.  The harness that holds the two backends together
is :func:`repro.faultsim.differential.cross_validate_analytical`,
which asserts the analytical answer falls inside the Monte-Carlo
Wilson score interval for every scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.geometry import ChipGeometry
from repro.faultsim.fault import FaultSpace
from repro.faultsim.fault_models import HOURS_PER_YEAR, FailureMode, FitTable
from repro.faultsim.scaling import ScalingFaultModel
from repro.faultsim.schemes import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    NonEccScheme,
    ProtectionScheme,
    XedChipkillScheme,
    XedScheme,
)
from repro.faultsim.vectorized import UnsupportedSchemeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faultsim.simulator import MonteCarloConfig

__all__ = [
    "MECHANISMS",
    "DUE_MECHANISMS",
    "SDC_MECHANISMS",
    "STEPS_PER_YEAR",
    "FaultRow",
    "MarkovResult",
    "SweepCell",
    "solve",
    "solve_many",
    "sweep",
]


#: Absorbing states of every chain, in canonical order.  ``due_*``
#: mechanisms are detected-uncorrectable outcomes, ``sdc_*`` silent
#: corruption; the split mirrors ``FailureKind`` in the Monte-Carlo
#: adjudicators.
MECHANISMS: Tuple[str, ...] = (
    "due_collision",
    "due_word_miss",
    "due_pair_miss",
    "due_direct",
    "sdc_direct",
    "sdc_misdiagnosis",
)

#: Mechanisms counted as DUE (detected uncorrectable error).
DUE_MECHANISMS = frozenset(
    ("due_collision", "due_word_miss", "due_pair_miss", "due_direct")
)

#: Mechanisms counted as SDC (silent data corruption).
SDC_MECHANISMS = frozenset(("sdc_direct", "sdc_misdiagnosis"))

#: Baseline time resolution: substeps per simulated year.  At DRAM FIT
#: rates the per-step arrival probability is ~1e-6, so the
#: single-arrival-per-step discretization error is O(1/STEPS_PER_YEAR)
#: relative — far below Monte-Carlo sampling noise at any practical
#: population (docs/theory.md quantifies this).
STEPS_PER_YEAR = 512

# Alive faults are tracked in four buckets: wide-wildcard faults
# (full address range — MULTI_BANK / MULTI_RANK, which collide with
# *any* later arrival) split by permanence, and narrow faults split by
# permanence.  Tracking the wide counts exactly removes the dominant
# mixing bias: averaging wide (p=1) and narrow (p<=2**-3) partners
# into one class re-samples a partner's identity at every later
# arrival, which overestimates failure at scaled FIT rates.
_B_WIDE_PERM, _B_WIDE_TRANS, _B_NARROW_PERM, _B_NARROW_TRANS = range(4)

# State-space caps.  Chains absorb long before fault counts reach
# these, so the truncation error is negligible: at default FIT rates a
# channel sees ~0.04 visible faults over 7 years, and a chain holding
# multiple wide faults has almost surely absorbed already.
_WIDE_PERM_CAP = 2
_WIDE_TRANS_CAP = 2
_WIDE_AGE_CAP = 1
_NARROW_PERM_CAP = 5
_NARROW_TRANS_CAP = 5
_NARROW_AGE_CAP = 1


def _popcount(x: int) -> int:
    """Number of set bits (Python 3.9-compatible)."""
    return bin(x).count("1")


@dataclass(frozen=True)
class FaultRow:
    """One fault-arrival class of a chain: a (mode, permanence) row.

    ``rate_per_hour`` is the Poisson arrival rate of this class within
    one chain copy (a channel), with the chip count and the ``1e-9``
    FIT conversion already folded in.  ``transient_word``
    marks transient single-word faults (the classes subject to the
    XED on-die-miss draw) and ``misdiagnosable`` marks row/column/bank
    faults (subject to the XED misdiagnosis draw).
    """

    label: str
    permanent: bool
    wildcard: int
    rate_per_hour: float
    transient_word: bool
    misdiagnosable: bool
    #: True for MULTI_RANK rows: the sampler clones those events into
    #: every rank of their channel, so they collide with faults in any
    #: rank; rank-local rows only collide with same-rank partners.
    spans_ranks: bool = False
    #: True for full-address-range rows (MULTI_BANK / MULTI_RANK):
    #: these collide with any later arrival on another chip, so their
    #: alive count gets its own state dimension.
    wide: bool = False


def _chain_rows(
    scheme: ProtectionScheme,
    fit: FitTable,
    space: FaultSpace,
    promotion_p: float,
) -> Tuple[FaultRow, ...]:
    """Build the fault-arrival rows for one channel-level chain copy.

    Every chain tracks a whole channel so each physical fault event —
    including MULTI_RANK events, which the sampler clones into every
    rank of their channel — is counted exactly once, and channels
    share nothing, making the system-level aggregation exact.  The
    rank-locality of pair/triple combinations is handled inside
    :func:`_collision_constants` via the ``spans_ranks`` flag.
    """
    rows: List[FaultRow] = []
    channel_chips = scheme.chips_per_rank * scheme.ranks_per_channel
    for mode in FailureMode:
        if mode not in fit.rates:
            continue
        for permanent in (False, True):
            fit_rate = fit.rate_of(mode, permanent)
            if fit_rate <= 0.0:
                continue
            suffix = "perm" if permanent else "trans"
            if mode.on_die_correctable:
                # Single-bit faults only become visible when a scaling
                # fault promotes them to a whole-word error; the
                # promoted fault keeps mode SINGLE_BIT in the sampler,
                # so it is neither a word-miss nor a misdiagnosis
                # candidate.
                if promotion_p <= 0.0:
                    continue
                rows.append(
                    FaultRow(
                        label=f"promoted_bit_{suffix}",
                        permanent=permanent,
                        wildcard=space.word_mask,
                        rate_per_hour=fit_rate
                        * 1e-9
                        * channel_chips
                        * min(1.0, promotion_p),
                        transient_word=False,
                        misdiagnosable=False,
                    )
                )
                continue
            rows.append(
                FaultRow(
                    label=f"{mode.value}_{suffix}",
                    permanent=permanent,
                    wildcard=space.wildcard_for(mode),
                    rate_per_hour=fit_rate * 1e-9 * channel_chips,
                    spans_ranks=mode.spans_ranks,
                    wide=(space.wildcard_for(mode) == space.full_mask),
                    transient_word=(
                        mode is FailureMode.SINGLE_WORD and not permanent
                    ),
                    misdiagnosable=mode
                    in (
                        FailureMode.SINGLE_ROW,
                        FailureMode.SINGLE_COLUMN,
                        FailureMode.SINGLE_BANK,
                    ),
                )
            )
    return tuple(rows)


def _bucket_of(row: FaultRow) -> int:
    """Alive-fault bucket index of a row (wide/narrow x perm/trans)."""
    if row.wide:
        return _B_WIDE_PERM if row.permanent else _B_WIDE_TRANS
    return _B_NARROW_PERM if row.permanent else _B_NARROW_TRANS


@lru_cache(maxsize=256)
def _collision_constants(
    rows: Tuple[FaultRow, ...],
    chips_per_rank: int,
    ranks_per_channel: int,
    full_mask: int,
    miss_p: float,
    triples: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row pair/triple collision probabilities vs the alive mix.

    Returns ``(p2, p2m, p3)``:

    * ``p2[r, b]`` — probability that a new arrival of row ``r``
      collides (distinct chip, same rank, overlapping address range)
      with one alive fault of bucket ``b`` (wide/narrow x
      permanent/transient), averaged over that bucket's rate mix.
    * ``p2m[r, b]`` — same, additionally weighted by the probability
      that at least one member of the pair is an undiagnosable
      transient-word miss (probability ``miss_p`` per qualifying
      member) — the XED+Chipkill pair-failure channel.
    * ``p3[r, ba, bb]`` — probability that the arrival completes a
      pairwise-colliding *triple* with one alive fault of bucket
      ``ba`` and one of bucket ``bb``.

    Address-overlap probabilities are exact: two mask/value ranges
    intersect iff they agree on every jointly-fixed bit, each of which
    is an independent fair coin over the sampled addresses, giving
    ``2**-popcount(fixed_a & fixed_b)``.  For triples the exponent is
    ``sum(popcounts) - popcount(union)`` (each bit fixed by ``k`` of
    the three ranges contributes ``k - 1`` agreement coins).  Chip
    distinctness contributes ``(c-1)/c`` for pairs and
    ``(c-1)(c-2)/c**2`` for triples.  Rank locality: a combination
    with ``k`` rank-local members (``spans_ranks`` false) requires
    those members to land in the same rank, contributing
    ``(1/ranks_per_channel)**(k-1)``; MULTI_RANK members are cloned
    into every rank and match any of them.

    These constants depend only on the row *mix*, not the absolute
    rates, so they are invariant under uniform FIT scaling; the
    ``lru_cache`` makes scrub-interval sweeps (same rows) free.
    """
    c = chips_per_rank
    n = len(rows)
    fixed = [(~r.wildcard) & full_mask for r in rows]
    chip2 = (c - 1) / c
    chip3 = (c - 1) * (c - 2) / (c * c)
    lam = [r.rate_per_hour for r in rows]
    miss = [miss_p if r.transient_word else 0.0 for r in rows]

    def _mix(bucket: int) -> Dict[int, float]:
        idx = [i for i in range(n) if _bucket_of(rows[i]) == bucket]
        total = sum(lam[i] for i in idx)
        if total <= 0.0:
            return {}
        return {i: lam[i] / total for i in idx}

    mixes = tuple(_mix(b) for b in range(4))
    rank_w = 1.0 / ranks_per_channel
    local = [0 if r.spans_ranks else 1 for r in rows]
    p2 = np.zeros((n, 4))
    p2m = np.zeros((n, 4))
    for i in range(n):
        for b in range(4):
            for j, pj in mixes[b].items():
                pair = chip2 * 2.0 ** (-_popcount(fixed[i] & fixed[j]))
                pair *= rank_w ** max(0, local[i] + local[j] - 1)
                p2[i, b] += pj * pair
                either_miss = miss[i] + miss[j] - miss[i] * miss[j]
                p2m[i, b] += pj * pair * either_miss
    p3 = np.zeros((n, 4, 4))
    if triples:
        for i in range(n):
            for ba in range(4):
                for bb in range(ba, 4):
                    acc = 0.0
                    for j, pj in mixes[ba].items():
                        for k, pk in mixes[bb].items():
                            expo = (
                                _popcount(fixed[i])
                                + _popcount(fixed[j])
                                + _popcount(fixed[k])
                                - _popcount(fixed[i] | fixed[j] | fixed[k])
                            )
                            weight = pj * pk * rank_w ** max(
                                0, local[i] + local[j] + local[k] - 1
                            )
                            acc += weight * 2.0 ** (-expo)
                    p3[i, ba, bb] = chip3 * acc
                    p3[i, bb, ba] = chip3 * acc
    return p2, p2m, p3


@dataclass(frozen=True)
class _ChainSpec:
    """Everything needed to build and step one scheme's chain."""

    rows: Tuple[FaultRow, ...]
    threshold: int  # faults needed to fail: 1, 2 (pairs) or 3 (triples)
    copies: int  # independent chain copies per system
    chips_per_rank: int
    ranks_per_channel: int
    full_mask: int
    word_miss_p: float = 0.0  # XED: transient-word on-die miss
    pair_miss_p: float = 0.0  # XED+Chipkill: pair-member miss
    misdiag_p: float = 0.0  # XED: row/col/bank misdiagnosis -> SDC
    sdc_direct_p: float = 0.0  # threshold-1: P(SDC | visible fault)


def _chain_spec(
    scheme: ProtectionScheme,
    fit: FitTable,
    space: FaultSpace,
    promotion_p: float,
) -> _ChainSpec:
    """Map a built-in protection scheme onto its chain structure.

    Dispatch is on *exact* type, mirroring the vectorized kernels: a
    user-defined subclass may override ``evaluate`` in ways no closed
    form can see, so it raises :class:`UnsupportedSchemeError` rather
    than silently solving the wrong model.
    """
    kind = type(scheme)
    ranks = scheme.ranks_per_channel
    channels = scheme.channels
    rows = _chain_rows(scheme, fit, space, promotion_p)
    base = dict(
        rows=rows,
        copies=channels,
        chips_per_rank=scheme.chips_per_rank,
        ranks_per_channel=ranks,
        full_mask=space.full_mask,
    )
    if kind is NonEccScheme or kind is EccDimmScheme:
        # Threshold-1: the first visible fault fails its channel.
        sdc_p = 1.0 if kind is NonEccScheme else scheme.sdc_fraction
        return _ChainSpec(threshold=1, sdc_direct_p=sdc_p, **base)
    if kind is XedScheme:
        return _ChainSpec(
            threshold=2,
            word_miss_p=scheme.on_die_miss_probability,
            misdiag_p=scheme.misdiagnosis_sdc_probability,
            **base,
        )
    if kind is ChipkillScheme:
        return _ChainSpec(threshold=2, **base)
    if kind is DoubleChipkillScheme:
        return _ChainSpec(threshold=3, **base)
    if kind is XedChipkillScheme:
        return _ChainSpec(
            threshold=3,
            pair_miss_p=scheme.on_die_miss_probability,
            **base,
        )
    raise UnsupportedSchemeError(
        f"no analytical chain for scheme type "
        f"{type(scheme).__name__!r}; use faultsim_backend='scalar' "
        f"(the golden model) for custom schemes"
    )


def _chain_states(
    threshold: int, scrubbed: bool
) -> List[Tuple[int, ...]]:
    """Enumerate transient (non-absorbing) states.

    Unscrubbed chains track alive counts per bucket,
    ``(wide_perm, wide_trans, narrow_perm, narrow_trans)``.  Scrubbed
    chains additionally split each transient bucket by age,
    ``(wide_perm, wide_young, wide_old, narrow_perm, narrow_young,
    narrow_old)``: young faults arrived in the current scrub
    interval, old ones have survived exactly one interval boundary
    and die at the next.  Threshold-1 chains absorb on every arrival,
    so only the empty state is reachable.
    """
    if threshold == 1:
        return [(0, 0, 0, 0)]
    if scrubbed:
        return [
            (wp, wy, wo, p, y, o)
            for wp in range(_WIDE_PERM_CAP + 1)
            for wy in range(_WIDE_AGE_CAP + 1)
            for wo in range(_WIDE_AGE_CAP + 1)
            for p in range(_NARROW_PERM_CAP + 1)
            for y in range(_NARROW_AGE_CAP + 1)
            for o in range(_NARROW_AGE_CAP + 1)
        ]
    return [
        (wp, wt, p, t)
        for wp in range(_WIDE_PERM_CAP + 1)
        for wt in range(_WIDE_TRANS_CAP + 1)
        for p in range(_NARROW_PERM_CAP + 1)
        for t in range(_NARROW_TRANS_CAP + 1)
    ]


def _arrival_matrix(
    spec: _ChainSpec,
    states: List[Tuple[int, ...]],
    dt: float,
    scrubbed: bool,
) -> np.ndarray:
    """One-substep transition matrix (row-vector convention).

    Per substep at most one arrival occurs (probability
    ``1 - exp(-lambda*dt)``, split across rows by rate); on arrival
    the chain either absorbs into a failure mechanism — collision
    with the alive population, word miss, pair miss, misdiagnosis, or
    direct failure for threshold-1 — or increments the matching alive
    count, saturating at the state caps.
    """
    n_states = len(states)
    n = n_states + len(MECHANISMS)
    idx = {s: i for i, s in enumerate(states)}
    mech_idx = {m: n_states + i for i, m in enumerate(MECHANISMS)}
    A = np.zeros((n, n))
    for m in MECHANISMS:
        A[mech_idx[m], mech_idx[m]] = 1.0
    lam_tot = sum(r.rate_per_hour for r in spec.rows)
    if lam_tot <= 0.0:
        for s in states:
            A[idx[s], idx[s]] = 1.0
        return A
    p2, p2m, p3 = _collision_constants(
        spec.rows,
        spec.chips_per_rank,
        spec.ranks_per_channel,
        spec.full_mask,
        spec.pair_miss_p,
        spec.threshold == 3,
    )
    stay = math.exp(-lam_tot * dt)
    arrive = -math.expm1(-lam_tot * dt)
    for si, s in enumerate(states):
        A[si, si] += stay
        if scrubbed:
            wp, wy, wo, p, y, o = s
            counts = (wp, wy + wo, p, y + o)
        else:
            wp, wt, p, t = s
            counts = (wp, wt, p, t)
        for ri, r in enumerate(spec.rows):
            p_row = arrive * r.rate_per_hour / lam_tot
            if p_row <= 0.0:
                continue
            out: Dict[str, float] = {}
            if spec.threshold == 1:
                out["sdc_direct"] = spec.sdc_direct_p
                out["due_direct"] = 1.0 - spec.sdc_direct_p
                survive = 0.0
            elif spec.threshold == 2:
                p_none = 1.0
                for b in range(4):
                    p_none *= (1.0 - p2[ri, b]) ** counts[b]
                p_coll = 1.0 - p_none
                out["due_collision"] = p_coll
                rem = 1.0 - p_coll
                if r.transient_word and spec.word_miss_p > 0.0:
                    out["due_word_miss"] = rem * spec.word_miss_p
                    rem *= 1.0 - spec.word_miss_p
                elif r.misdiagnosable and spec.misdiag_p > 0.0:
                    out["sdc_misdiagnosis"] = rem * spec.misdiag_p
                    rem *= 1.0 - spec.misdiag_p
                survive = rem
            else:
                p_none = 1.0
                for ba in range(4):
                    for bb in range(ba, 4):
                        if ba == bb:
                            pairs = counts[ba] * (counts[ba] - 1) // 2
                        else:
                            pairs = counts[ba] * counts[bb]
                        if pairs:
                            p_none *= (1.0 - p3[ri, ba, bb]) ** pairs
                p_tri = 1.0 - p_none
                out["due_collision"] = p_tri
                rem = 1.0 - p_tri
                if spec.pair_miss_p > 0.0:
                    pm_none = 1.0
                    for b in range(4):
                        pm_none *= (1.0 - p2m[ri, b]) ** counts[b]
                    out["due_pair_miss"] = rem * (1.0 - pm_none)
                    rem *= pm_none
                survive = rem
            for mech, w in out.items():
                if w > 0.0:
                    A[si, mech_idx[mech]] += p_row * w
            if survive > 0.0:
                if scrubbed:
                    if r.wide:
                        if r.permanent:
                            target = (
                                min(wp + 1, _WIDE_PERM_CAP), wy, wo, p, y, o
                            )
                        else:
                            target = (
                                wp, min(wy + 1, _WIDE_AGE_CAP), wo, p, y, o
                            )
                    elif r.permanent:
                        target = (
                            wp, wy, wo, min(p + 1, _NARROW_PERM_CAP), y, o
                        )
                    else:
                        target = (
                            wp, wy, wo, p, min(y + 1, _NARROW_AGE_CAP), o
                        )
                else:
                    if r.wide:
                        if r.permanent:
                            target = (min(wp + 1, _WIDE_PERM_CAP), wt, p, t)
                        else:
                            target = (wp, min(wt + 1, _WIDE_TRANS_CAP), p, t)
                    elif r.permanent:
                        target = (wp, wt, min(p + 1, _NARROW_PERM_CAP), t)
                    else:
                        target = (wp, wt, p, min(t + 1, _NARROW_TRANS_CAP))
                A[si, idx[target]] += p_row * survive
    return A


def _repair_matrix(
    states: List[Tuple[int, ...]], survive_p: float
) -> np.ndarray:
    """Scrub-boundary matrix for the aged state space.

    Old transients expire (their ``t + scrub_hours`` lifetime ends
    inside the closing interval); each young transient independently
    survives into the next interval with probability ``survive_p``.
    Permanents and absorbing states are untouched.

    ``survive_p`` is chosen by the caller so the *expected* alive time
    of a transient matches the sampler's exact ``scrub_hours`` TTL.
    A uniformly-placed arrival inside an interval of ``q`` substeps is
    visible to later arrivals for ``(q - 1) / 2`` substeps of its own
    interval on average (the arrival substep itself is already spent),
    so surviving the boundary with probability ``(q + 1) / (2 q)``
    restores the exact total: ``(q - 1) / 2 + s·q = q`` substeps.  In
    the fine-step limit this converges to the naive coin ``1/2``.
    """
    n_states = len(states)
    n = n_states + len(MECHANISMS)
    idx = {s: i for i, s in enumerate(states)}
    stay = survive_p
    die = 1.0 - survive_p
    R = np.zeros((n, n))
    for i in range(n_states, n):
        R[i, i] = 1.0
    for s in states:
        wp, wy, _wo, p, y, _o = s
        for kw in range(wy + 1):
            w_weight = math.comb(wy, kw) * stay**kw * die ** (wy - kw)
            for kn in range(y + 1):
                weight = (
                    w_weight * math.comb(y, kn) * stay**kn * die ** (y - kn)
                )
                R[idx[s], idx[(wp, 0, kw, p, 0, kn)]] += weight
    return R


@dataclass(frozen=True)
class _ChainSolution:
    """Absorbed mechanism mass of one chain copy over the year grid."""

    times: Tuple[float, ...]  # years, ascending; last entry == lifetime
    mass: Dict[str, Tuple[float, ...]]  # mechanism -> mass at each time


def _year_grid(years: float) -> List[float]:
    """Integer-year record points plus the (possibly fractional) end."""
    grid = [float(y) for y in range(1, int(years) + 1)]
    if not grid or grid[-1] < years:
        grid.append(float(years))
    return grid


def _solve_chain(
    spec: _ChainSpec, years: float, scrub_hours: Optional[float]
) -> _ChainSolution:
    """Step one chain copy through the lifetime and record absorption."""
    scrubbed = scrub_hours is not None and spec.threshold >= 2
    states = _chain_states(spec.threshold, scrubbed)
    n_states = len(states)
    times = _year_grid(years)
    v = np.zeros(n_states + len(MECHANISMS))
    v[0] = 1.0  # states[0] is the all-zero (healthy, empty) state
    records: List[np.ndarray] = []
    powers: Dict[Tuple[str, int], np.ndarray] = {}

    def _power(key: str, M: np.ndarray, k: int) -> np.ndarray:
        if (key, k) not in powers:
            powers[(key, k)] = np.linalg.matrix_power(M, k)
        return powers[(key, k)]

    if scrubbed:
        delta = float(scrub_hours)
        substeps = max(1, math.ceil(STEPS_PER_YEAR * delta / HOURS_PER_YEAR))
        dt = delta / substeps
        A = _arrival_matrix(spec, states, dt, scrubbed=True)
        survive_p = (substeps + 1) / (2.0 * substeps)
        interval = np.linalg.matrix_power(A, substeps) @ _repair_matrix(
            states, survive_p
        )
        lifetime_h = years * HOURS_PER_YEAR
        n_full = int(lifetime_h / delta)
        pos = 0
        for ty in times:
            hours = ty * HOURS_PER_YEAR
            k = min(n_full, int(round(hours / delta)))
            if k > pos:
                v = v @ _power("interval", interval, k - pos)
                pos = k
            w = v
            if pos == n_full:
                tail_steps = max(
                    0, int(round((hours - n_full * delta) / dt))
                )
                if tail_steps > 0:
                    w = v @ _power("arrival", A, tail_steps)
            records.append(w[n_states:].copy())
    else:
        steps_total = max(1, int(round(years * STEPS_PER_YEAR)))
        dt = years * HOURS_PER_YEAR / steps_total
        A = _arrival_matrix(spec, states, dt, scrubbed=False)
        pos = 0
        for ty in times:
            k = min(steps_total, int(round(ty / years * steps_total)))
            if k > pos:
                v = v @ _power("arrival", A, k - pos)
                pos = k
            records.append(v[n_states:].copy())

    mass = {
        mech: tuple(rec[i] for rec in records)
        for i, mech in enumerate(MECHANISMS)
    }
    return _ChainSolution(times=tuple(times), mass=mass)


@dataclass(frozen=True)
class MarkovResult:
    """Analytical counterpart of :class:`ReliabilityResult`.

    Duck-compatible with the read surface the analysis/CLI layers use
    (``format_summary``, ``improvement_over``, ``curve``,
    ``confidence_interval``, ``num_systems``, ``failures``), so it
    flows through ``format_reliability_table`` and the CSV exporters
    unchanged.  ``num_systems`` is the *requested* Monte-Carlo
    population (used to express expected counts); the probabilities
    themselves are exact within the model, so the confidence interval
    is degenerate.
    """

    scheme_name: str
    years: float
    num_systems: int
    probability_of_failure: float
    due_probability: float
    sdc_probability: float
    mechanisms: Dict[str, float] = field(default_factory=dict)
    curve_points: Tuple[Tuple[float, float], ...] = ()

    @property
    def failures(self) -> int:
        """Expected failure count at the configured population."""
        return int(round(self.probability_of_failure * self.num_systems))

    @property
    def due(self) -> int:
        """Expected DUE count at the configured population."""
        return int(round(self.due_probability * self.num_systems))

    @property
    def sdc(self) -> int:
        """Expected SDC count at the configured population."""
        return int(round(self.sdc_probability * self.num_systems))

    def probability_by_year(self, year: float) -> float:
        """P(failure by ``year``), interpolated on the solved grid."""
        if year <= 0.0 or not self.curve_points:
            return 0.0
        prev_t, prev_p = 0.0, 0.0
        for t, p in self.curve_points:
            if year <= t:
                span = t - prev_t
                if span <= 0.0:
                    return p
                frac = (year - prev_t) / span
                return prev_p + frac * (p - prev_p)
            prev_t, prev_p = t, p
        return self.curve_points[-1][1]

    def curve(
        self, years: Optional[Sequence[float]] = None
    ) -> List[tuple]:
        """(year, P(failure by year)) series for Figures 1 and 7-10."""
        if years is None:
            years = range(1, int(self.years) + 1)
        return [(y, self.probability_by_year(y)) for y in years]

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Degenerate interval: the solver has no sampling noise."""
        p = self.probability_of_failure
        return (p, p)

    def improvement_over(self, other) -> float:
        """Reliability ratio vs another result (higher = this wins)."""
        if self.probability_of_failure <= 0.0:
            return math.inf
        return other.probability_of_failure / self.probability_of_failure

    def format_summary(self) -> str:
        """One-line summary matching the Monte-Carlo report layout."""
        return (
            f"{self.scheme_name:34s} P(fail,{self.years:.0f}y) = "
            f"{self.probability_of_failure:.3e} "
            f"(analytical; DUE {self.due_probability:.3e}, "
            f"SDC {self.sdc_probability:.3e})"
        )

    def format_mechanisms(self) -> str:
        """Multi-line failure-mode decomposition, largest first."""
        lines = [f"{self.scheme_name} failure-mechanism decomposition:"]
        total = self.probability_of_failure
        ranked = sorted(
            self.mechanisms.items(), key=lambda kv: kv[1], reverse=True
        )
        for mech, p in ranked:
            if p <= 0.0:
                continue
            share = (p / total) if total > 0.0 else 0.0
            lines.append(f"  {mech:18s} {p:.3e}  ({share:6.1%})")
        if len(lines) == 1:
            lines.append("  (no failure mass)")
        return "\n".join(lines)


def _system_probability(p_chain: float, copies: int) -> float:
    """Lift a per-chain failure probability to the whole system."""
    p_chain = min(max(p_chain, 0.0), 1.0)
    return 1.0 - (1.0 - p_chain) ** copies


def solve(
    scheme: ProtectionScheme,
    config: Optional["MonteCarloConfig"] = None,
) -> MarkovResult:
    """Solve a scheme's lifetime reliability in closed form.

    Consumes the same :class:`MonteCarloConfig` as :func:`simulate`
    (``num_systems``/``seed`` are carried through for reporting but do
    not affect the answer).  Raises :class:`UnsupportedSchemeError`
    for scheme types without a chain mapping.
    """
    from repro.faultsim.simulator import MonteCarloConfig

    if config is None:
        config = MonteCarloConfig()
    space = FaultSpace.for_chip(ChipGeometry(device_width=config.device_width))
    promotion_p = (
        ScalingFaultModel(
            bit_error_rate=config.scaling_rate
        ).promotion_probability
        if config.scaling_rate > 0.0
        else 0.0
    )
    spec = _chain_spec(scheme, config.fit, space, promotion_p)
    sol = _solve_chain(spec, config.years, config.scrub_hours)

    curve_points = []
    for i, ty in enumerate(sol.times):
        p_chain = sum(sol.mass[mech][i] for mech in MECHANISMS)
        curve_points.append((ty, _system_probability(p_chain, spec.copies)))

    final = len(sol.times) - 1
    p_chain = sum(sol.mass[mech][final] for mech in MECHANISMS)
    p_sys = _system_probability(p_chain, spec.copies)
    mechanisms: Dict[str, float] = {}
    for mech in MECHANISMS:
        share = sol.mass[mech][final] / p_chain if p_chain > 0.0 else 0.0
        mechanisms[mech] = p_sys * share
    due_p = sum(mechanisms[m] for m in MECHANISMS if m in DUE_MECHANISMS)
    sdc_p = sum(mechanisms[m] for m in MECHANISMS if m in SDC_MECHANISMS)
    return MarkovResult(
        scheme_name=scheme.name,
        years=float(config.years),
        num_systems=config.num_systems,
        probability_of_failure=p_sys,
        due_probability=due_p,
        sdc_probability=sdc_p,
        mechanisms=mechanisms,
        curve_points=tuple(curve_points),
    )


def solve_many(
    schemes: Sequence[ProtectionScheme],
    config: Optional["MonteCarloConfig"] = None,
) -> List[MarkovResult]:
    """Solve several schemes under one configuration."""
    return [solve(scheme, config) for scheme in schemes]


@dataclass(frozen=True)
class SweepCell:
    """One point of an analytical parameter sweep."""

    scheme_name: str
    fit_scale: float
    scrub_hours: Optional[float]
    result: MarkovResult


def sweep(
    schemes: Sequence[ProtectionScheme],
    config: Optional["MonteCarloConfig"] = None,
    *,
    fit_scales: Sequence[float] = (1.0,),
    scrub_hours: Sequence[Optional[float]] = (None,),
) -> List[SweepCell]:
    """Grid-solve schemes x FIT scales x scrub intervals.

    The whole grid costs milliseconds per cell — this is the
    interactive-sweep entry point the Monte-Carlo engine cannot
    offer (see docs/cookbook.md, "Interactive sweeps with the
    analytical backend").
    """
    from repro.faultsim.simulator import MonteCarloConfig

    if config is None:
        config = MonteCarloConfig()
    cells: List[SweepCell] = []
    for scale in fit_scales:
        scaled = replace(config, fit=config.fit.scaled(scale))
        for hours in scrub_hours:
            cell_config = replace(scaled, scrub_hours=hours)
            for scheme in schemes:
                cells.append(
                    SweepCell(
                        scheme_name=scheme.name,
                        fit_scale=scale,
                        scrub_hours=hours,
                        result=solve(scheme, cell_config),
                    )
                )
    return cells
