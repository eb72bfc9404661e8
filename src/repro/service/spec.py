"""Experiment specifications and their cache identity.

A service request is a JSON document describing one reliability
comparison -- the same vocabulary as ``repro reliability``'s flags
(schemes, population, seed, backends).  :class:`ExperimentSpec`
validates that document once at submission time, then derives the
job's **fingerprint**: a SHA-256 over the ordered per-scheme
:class:`~repro.runtime.checkpoint.RunFingerprint` dicts, i.e. over
everything that can change a single bit of the result (seed,
population, shard plan, config hash, code version).

Two requests with equal fingerprints are, by construction, the *same
experiment*: the service coalesces them in flight and serves the
second from the disk cache, and the bytes it returns are identical.
Knobs that only shape execution -- ``workers`` (bit-identical for any
worker count, proven by the parallel suite) and the ``chaos``
developer spec (recovery is bit-identical, proven by the chaos suite)
-- are deliberately excluded from the identity.

The ``analytical`` fault-sim backend is rejected here: its results are
not bit-identical to Monte-Carlo sampling (only Wilson-compatible), so
it must not share a cache identity with the sampling backends -- and a
closed-form solve finishes in milliseconds anyway (``repro sweep``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.chaos import ChaosSpecError, parse_chaos_spec
from repro.runtime.checkpoint import RunFingerprint
from repro.runtime.distributed import SCHEME_CLASSES

__all__ = ["ServiceSpecError", "ExperimentSpec", "canonical_json"]


class ServiceSpecError(ValueError):
    """A submitted experiment spec is malformed or unsupported."""


def canonical_json(obj: object) -> str:
    """Canonical JSON text (sorted keys, no whitespace).

    The service's entire byte-identity contract rests on this one
    serialisation: cache entries, result documents and digests all go
    through it, so identical Python values always yield identical
    bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: Keys a spec document may carry; anything else is a typo we reject
#: loudly rather than silently ignoring (a misspelled ``scrub_hours``
#: must not quietly run with scrubbing off).
_ALLOWED_KEYS = {
    "schemes",
    "systems",
    "years",
    "scaling_rate",
    "scrub_hours",
    "seed",
    "shard_size",
    "faultsim_backend",
    "workers",
    "chaos",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated reliability experiment as submitted to the service.

    Field semantics mirror the ``repro reliability`` flags one-to-one
    (see :mod:`repro.cli`); ``shard_size`` is stored *resolved* (never
    ``None``) so the fingerprint pins the exact shard plan.  The
    ``workers`` and ``chaos`` fields affect only how the experiment
    executes, never its bits, and are excluded from
    :meth:`fingerprint`.
    """

    schemes: Tuple[str, ...]
    systems: int = 200_000
    years: float = 7.0
    scaling_rate: float = 0.0
    scrub_hours: Optional[float] = None
    seed: int = 2016
    shard_size: int = 25_000
    faultsim_backend: str = "vectorized"
    workers: int = 1
    chaos: Optional[str] = None

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentSpec":
        """Validate a submitted JSON document into a spec.

        Raises :class:`ServiceSpecError` with an actionable message for
        every rejection -- the service maps these to HTTP 400 bodies.
        """
        from repro.faultsim.parallel import resolve_shard_size
        from repro.faultsim.simulator import DEFAULT_SHARD_SIZE

        if not isinstance(data, dict):
            raise ServiceSpecError("spec must be a JSON object")
        unknown = sorted(set(data) - _ALLOWED_KEYS)
        if unknown:
            raise ServiceSpecError(
                f"unknown spec key(s): {', '.join(unknown)}"
            )
        schemes = data.get("schemes")
        if (
            not isinstance(schemes, (list, tuple))
            or not schemes
            or not all(isinstance(s, str) for s in schemes)
        ):
            raise ServiceSpecError(
                "spec.schemes must be a non-empty list of scheme names"
            )
        bad = [s for s in schemes if s not in SCHEME_CLASSES]
        if bad:
            raise ServiceSpecError(
                f"unknown scheme(s) {', '.join(bad)}; "
                f"expected one of {', '.join(sorted(SCHEME_CLASSES))}"
            )
        try:
            systems = int(data.get("systems", 200_000))
            years = float(data.get("years", 7.0))
            scaling_rate = float(data.get("scaling_rate", 0.0))
            seed = int(data.get("seed", 2016))
            workers = int(data.get("workers", 1))
            raw_shard = data.get("shard_size")
            shard_size = None if raw_shard is None else int(raw_shard)
            raw_scrub = data.get("scrub_hours")
            scrub_hours = None if raw_scrub is None else float(raw_scrub)
        except (TypeError, ValueError) as exc:
            raise ServiceSpecError(f"invalid numeric field: {exc}") from exc
        if systems < 1:
            raise ServiceSpecError("spec.systems must be >= 1")
        if years <= 0:
            raise ServiceSpecError("spec.years must be > 0")
        if workers < 1:
            raise ServiceSpecError("spec.workers must be >= 1")
        if scrub_hours is not None and scrub_hours <= 0:
            raise ServiceSpecError("spec.scrub_hours must be > 0 or null")
        faultsim_backend = str(data.get("faultsim_backend", "vectorized"))
        if faultsim_backend == "analytical":
            raise ServiceSpecError(
                "the analytical backend solves in milliseconds and is "
                "not bit-identical to sampling; run `repro sweep` "
                "directly instead of submitting it as a campaign"
            )
        if faultsim_backend not in ("scalar", "vectorized"):
            raise ServiceSpecError(
                f"unknown faultsim_backend {faultsim_backend!r} "
                "(expected scalar or vectorized)"
            )
        chaos = data.get("chaos")
        if chaos is not None:
            if not isinstance(chaos, str):
                raise ServiceSpecError("spec.chaos must be a string spec")
            try:
                parse_chaos_spec(chaos)
            except ChaosSpecError as exc:
                raise ServiceSpecError(f"invalid chaos spec: {exc}") from exc
        try:
            resolved = resolve_shard_size(
                systems, shard_size, DEFAULT_SHARD_SIZE
            )
        except ValueError as exc:
            raise ServiceSpecError(str(exc)) from exc
        return cls(
            schemes=tuple(schemes),
            systems=systems,
            years=years,
            scaling_rate=scaling_rate,
            scrub_hours=scrub_hours,
            seed=seed,
            shard_size=resolved,
            faultsim_backend=faultsim_backend,
            workers=workers,
            chaos=chaos,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image of the full spec (including exec knobs)."""
        return {
            "schemes": list(self.schemes),
            "systems": self.systems,
            "years": self.years,
            "scaling_rate": self.scaling_rate,
            "scrub_hours": self.scrub_hours,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "faultsim_backend": self.faultsim_backend,
            "workers": self.workers,
            "chaos": self.chaos,
        }

    def build_runs(self) -> List[Tuple[object, object]]:
        """Instantiate ``(scheme, MonteCarloConfig)`` per scheme key.

        One config object per scheme (all identical in value) keeps
        each :func:`repro.faultsim.simulate` call independent, exactly
        like the CLI's loop over ``--schemes``.
        """
        import repro.faultsim as faultsim
        from repro.faultsim.simulator import MonteCarloConfig

        runs: List[Tuple[object, object]] = []
        for key in self.schemes:
            scheme = getattr(faultsim, SCHEME_CLASSES[key])()
            config = MonteCarloConfig(
                num_systems=self.systems,
                years=self.years,
                seed=self.seed,
                scaling_rate=self.scaling_rate,
                scrub_hours=self.scrub_hours,
                faultsim_backend=self.faultsim_backend,
            )
            runs.append((scheme, config))
        return runs

    def run_fingerprints(self) -> List[RunFingerprint]:
        """The per-scheme run fingerprints, in submission order."""
        from repro.faultsim.simulator import reliability_fingerprint

        return [
            reliability_fingerprint(scheme, config, self.shard_size)
            for scheme, config in self.build_runs()
        ]

    def fingerprint(self) -> str:
        """The job's cache identity: SHA-256 over the ordered runs.

        Covers every result-affecting knob via the per-scheme
        :class:`RunFingerprint` (which itself folds in the config hash
        and code version) -- and nothing else, so re-submitting with a
        different worker count or chaos spec still hits the cache.
        """
        payload = canonical_json(
            [fp.to_dict() for fp in self.run_fingerprints()]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
