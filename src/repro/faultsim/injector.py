"""Vectorised Monte-Carlo fault sampling.

The paper simulates one billion systems; getting anywhere near that in
Python requires separating the cheap common case from the expensive
rare one.  The number of runtime faults a system develops over 7 years
is Poisson with mean ~0.3, so the overwhelming majority of sample
systems draw fewer faults than the scheme under test can possibly fail
on -- those are resolved wholesale with one vectorised Poisson draw.
Only the surviving minority gets fully materialised
:class:`~repro.faultsim.fault.ChipFault` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.dram.geometry import ChipGeometry
from repro.faultsim.fault import AddressRange, ChipFault, FaultSpace
from repro.faultsim.fault_models import FailureMode, FitTable
from repro.faultsim.scaling import ScalingFaultModel
from repro.faultsim.schemes import ProtectionScheme
from repro.faultsim.vectorized import MODE_CODES, FaultShard


@dataclass
class SampledSystem:
    """One Monte-Carlo sample system that needs detailed evaluation."""

    index: int
    faults: List[ChipFault]


class FaultSampler:
    """Samples runtime faults for a memory system shape.

    Parameters
    ----------
    scheme:
        Supplies the chip population (channels x ranks x chips/rank).
    fit:
        Per-chip FIT table (Table I by default).
    hours:
        Simulated lifetime.
    scaling_rate:
        Scaling-fault bit-error rate; promotes the corresponding share
        of runtime single-bit faults into visible two-bit word faults.
    scrub_hours:
        If set, transient faults deactivate after this interval
        (memory scrubbing); by default damage persists, the paper's
        accumulate-over-lifetime assumption.
    device_width:
        x8 or x4; sets the lane width a column failure breaks.
    """

    def __init__(
        self,
        scheme: ProtectionScheme,
        fit: FitTable,
        hours: float,
        scaling_rate: float = 0.0,
        scrub_hours: Optional[float] = None,
        device_width: int = 8,
        chip_geometry: Optional[ChipGeometry] = None,
    ) -> None:
        self.scheme = scheme
        self.fit = fit
        self.hours = hours
        self.scrub_hours = scrub_hours
        geometry = chip_geometry or ChipGeometry(device_width=device_width)
        self.space = FaultSpace.for_chip(geometry)
        self.geometry = geometry
        self.scaling = ScalingFaultModel(bit_error_rate=scaling_rate)
        self.promotion_p = (
            self.scaling.promotion_probability if scaling_rate > 0 else 0.0
        )
        modes = fit.mode_weights()
        self._modes: List[Tuple[FailureMode, bool]] = [
            (mode, permanent) for mode, permanent, _ in modes
        ]
        self._mode_probs = np.array([w for _, _, w in modes])
        self._wildcards = [self.space.wildcard_for(mode) for mode, _ in self._modes]
        # Per-FIT-row metadata in array form, for struct-of-arrays shards.
        self._row_mode_codes = np.array(
            [MODE_CODES[mode] for mode, _ in self._modes], dtype=np.int64
        )
        self._row_permanent = np.array(
            [permanent for _, permanent in self._modes], dtype=bool
        )
        self._row_wildcards = np.array(self._wildcards, dtype=np.int64)
        self._row_spans = np.array(
            [mode.spans_ranks for mode, _ in self._modes], dtype=bool
        )
        self._row_correctable = np.array(
            [mode.on_die_correctable for mode, _ in self._modes], dtype=bool
        )

    @property
    def lam_per_system(self) -> float:
        """Expected runtime faults per system over the lifetime."""
        return self.fit.total_fit * 1e-9 * self.hours * self.scheme.total_chips

    @property
    def row_rates(self) -> np.ndarray:
        """Expected faults per system per FIT-table row (mode x t/p)."""
        return self._mode_probs * self.lam_per_system

    # -- sampling -------------------------------------------------------------

    def sample_counts(self, num_systems: int, rng: np.random.Generator) -> np.ndarray:
        """Total runtime-fault counts per system (one Poisson draw)."""
        return rng.poisson(self.lam_per_system, num_systems)

    def sample_shard_arrays(
        self,
        start_index: int,
        num_systems: int,
        rng: np.random.Generator,
        min_faults: int = 1,
    ) -> FaultShard:
        """Sample one shard into struct-of-arrays form, per FIT row.

        Instead of drawing one total-Poisson count per system and then
        splitting it categorically, each FIT-table row (failure mode x
        transient/permanent) gets one batched Poisson draw across the
        shard, and every fault attribute (arrival time, chip, address,
        promotion draw) is drawn as one numpy batch per row.  Thinning a
        Poisson process row-by-row is distribution-identical to the
        categorical split, and it removes the per-fault ``rng.choice``
        from the hot loop.

        Only systems with at least ``min_faults`` faults are kept;
        their global indices are ``start_index`` plus the in-shard
        offset, so downstream per-system seeding (which hashes the
        global index) is shard-layout independent.  The returned
        :class:`~repro.faultsim.vectorized.FaultShard` holds the raw
        draw columns grouped by system; both backends consume it --
        the scalar path via :meth:`materialise_shard`, the vectorized
        kernels directly -- so the RNG stream is shared verbatim.
        """
        rates = self.row_rates
        num_rows = len(rates)
        counts = np.empty((num_rows, num_systems), dtype=np.int64)
        for i in range(num_rows):
            counts[i] = rng.poisson(rates[i], num_systems)
        selected = np.nonzero(counts.sum(axis=0) >= min_faults)[0]
        if selected.size == 0:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return self._shard(
                start_index, num_systems, selected, empty_i,
                empty_i, empty_i, empty_f, empty_i, empty_f,
            )
        sel_counts = counts[:, selected]

        # One attribute batch per row, drawn in fixed row order (this is
        # the deterministic part of the stream), then flattened and
        # stably re-grouped by system -- pure bookkeeping, no draws.
        row_attrs = [
            self._draw_attributes(int(sel_counts[i].sum()), rng)
            for i in range(num_rows)
        ]
        positions = np.concatenate([
            np.repeat(np.arange(selected.size), sel_counts[i])
            for i in range(num_rows)
        ])
        order = np.argsort(positions, kind="stable")
        mode_rows = np.concatenate([
            np.full(len(row_attrs[i]["times"]), i, dtype=np.int64)
            for i in range(num_rows)
        ])[order]
        chips = np.concatenate([a["chips"] for a in row_attrs])[order]
        times = np.concatenate([a["times"] for a in row_attrs])[order]
        addrs = np.concatenate([a["addrs"] for a in row_attrs])[order]
        promote = np.concatenate([a["promote"] for a in row_attrs])[order]
        return self._shard(
            start_index, num_systems, selected, sel_counts.sum(axis=0),
            mode_rows, chips, times, addrs, promote,
        )

    def _shard(
        self,
        start_index: int,
        num_systems: int,
        selected: np.ndarray,
        totals: np.ndarray,
        mode_rows: np.ndarray,
        chips: np.ndarray,
        times: np.ndarray,
        addrs: np.ndarray,
        promote: np.ndarray,
    ) -> FaultShard:
        return FaultShard(
            start_index=start_index,
            num_systems=num_systems,
            selected=selected,
            counts=totals,
            mode_rows=mode_rows,
            chips_global=chips,
            times=times,
            addr_values=addrs,
            promote_u=promote,
            row_mode_codes=self._row_mode_codes,
            row_permanent=self._row_permanent,
            row_wildcards=self._row_wildcards,
            row_spans=self._row_spans,
            row_correctable=self._row_correctable,
            chips_per_rank=self.scheme.chips_per_rank,
            ranks_per_channel=self.scheme.ranks_per_channel,
            promotion_p=self.promotion_p,
            scrub_hours=self.scrub_hours,
            word_mask=self.space.word_mask,
        )

    def sample_shard(
        self,
        start_index: int,
        num_systems: int,
        rng: np.random.Generator,
        min_faults: int = 1,
    ) -> Iterator[SampledSystem]:
        """Sample one shard and materialise ChipFault sample systems.

        Draws via :meth:`sample_shard_arrays` (so the stream is
        identical under both adjudication backends) and builds the
        per-system :class:`~repro.faultsim.fault.ChipFault` lists the
        scalar evaluators walk.
        """
        yield from self.materialise_shard(
            self.sample_shard_arrays(start_index, num_systems, rng, min_faults)
        )

    def materialise_shard(self, shard: FaultShard) -> Iterator[SampledSystem]:
        """Build ChipFault sample systems from a struct-of-arrays shard."""
        if shard.selected.size == 0:
            return
        modes = shard.mode_rows.tolist()
        chips = shard.chips_global.tolist()
        times = shard.times.tolist()
        addrs = shard.addr_values.tolist()
        promote = shard.promote_u.tolist()
        chips_per_rank = self.scheme.chips_per_rank
        ranks = self.scheme.ranks_per_channel
        totals = shard.counts.tolist()
        indices = shard.selected.tolist()
        offset = 0
        for j, offset_in_shard in enumerate(indices):
            faults: List[ChipFault] = []
            for k in range(offset, offset + totals[j]):
                faults.extend(self._build_fault(
                    modes[k],
                    chips[k],
                    times[k],
                    addrs[k],
                    promote[k],
                    chips_per_rank,
                    ranks,
                ))
            offset += totals[j]
            yield SampledSystem(shard.start_index + offset_in_shard, faults)

    def _draw_attributes(
        self, total: int, rng: np.random.Generator
    ) -> dict:
        """One numpy batch of every per-fault attribute (size ``total``)."""
        s = self.space
        banks = rng.integers(0, self.geometry.banks, size=total)
        rows = rng.integers(0, self.geometry.rows_per_bank, size=total)
        cols = rng.integers(0, self.geometry.columns_per_row, size=total)
        bits = rng.integers(0, 1 << (s.beat_bits + s.lane_bits), size=total)
        return {
            "chips": rng.integers(0, self.scheme.total_chips, size=total),
            "times": rng.uniform(0.0, self.hours, size=total),
            "addrs": (
                (banks.astype(np.int64) << s.bank_shift)
                | (rows.astype(np.int64) << s.row_shift)
                | (cols.astype(np.int64) << s.column_shift)
                | bits.astype(np.int64)
            ),
            "promote": rng.random(size=total),
        }

    def materialise(
        self,
        system_indices: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
    ) -> Iterator[SampledSystem]:
        """Build ChipFault lists for the systems that need evaluation."""
        total = int(counts.sum())
        if total == 0:
            return
        s = self.space
        chips_per_rank = self.scheme.chips_per_rank
        ranks = self.scheme.ranks_per_channel

        mode_idx = rng.choice(len(self._modes), size=total, p=self._mode_probs)
        chip_global = rng.integers(0, self.scheme.total_chips, size=total)
        times = rng.uniform(0.0, self.hours, size=total)
        banks = rng.integers(0, self.geometry.banks, size=total)
        rows = rng.integers(0, self.geometry.rows_per_bank, size=total)
        cols = rng.integers(0, self.geometry.columns_per_row, size=total)
        bits = rng.integers(0, 1 << (s.beat_bits + s.lane_bits), size=total)
        promote_draw = rng.random(size=total)

        addr_values = (
            (banks.astype(np.int64) << s.bank_shift)
            | (rows.astype(np.int64) << s.row_shift)
            | (cols.astype(np.int64) << s.column_shift)
            | bits.astype(np.int64)
        )

        offset = 0
        for sys_idx, n in zip(system_indices, counts):
            n = int(n)
            faults: List[ChipFault] = []
            for j in range(offset, offset + n):
                faults.extend(self._build_fault(
                    int(mode_idx[j]),
                    int(chip_global[j]),
                    float(times[j]),
                    int(addr_values[j]),
                    float(promote_draw[j]),
                    chips_per_rank,
                    ranks,
                ))
            offset += n
            yield SampledSystem(int(sys_idx), faults)

    def _build_fault(
        self,
        mode_i: int,
        chip_global: int,
        time_hours: float,
        addr_value: int,
        promote_u: float,
        chips_per_rank: int,
        ranks: int,
    ) -> List[ChipFault]:
        mode, permanent = self._modes[mode_i]
        wildcard = self._wildcards[mode_i]
        chip = chip_global % chips_per_rank
        rank = (chip_global // chips_per_rank) % ranks
        channel = chip_global // (chips_per_rank * ranks)

        correctable = mode.on_die_correctable
        if correctable and promote_u < self.promotion_p:
            # Runtime bit fault struck a word holding a scaling fault:
            # the two-bit word escapes on-die correction (Section VII).
            correctable = False
            wildcard = self.space.word_mask

        end = float("inf")
        if not permanent and self.scrub_hours is not None:
            end = time_hours + self.scrub_hours

        addr = AddressRange(addr_value, wildcard)
        base = ChipFault(
            channel=channel,
            rank=rank,
            chip=chip,
            mode=mode,
            permanent=permanent,
            time_hours=time_hours,
            addr=addr,
            on_die_correctable=correctable,
            end_hours=end,
        )
        if not mode.spans_ranks or ranks == 1:
            return [base]
        # Multi-rank fault: the same chip position fails in every rank
        # of the channel (shared I/O / command circuitry).
        clones = []
        for r in range(ranks):
            clones.append(
                ChipFault(
                    channel=channel,
                    rank=r,
                    chip=chip,
                    mode=mode,
                    permanent=permanent,
                    time_hours=time_hours,
                    addr=addr,
                    on_die_correctable=correctable,
                    end_hours=end,
                )
            )
        return clones
