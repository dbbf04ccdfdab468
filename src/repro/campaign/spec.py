"""Campaign and shard specifications: the deterministic work plan.

A campaign sweeps injected failure modes over circuits and measures how
well the paper's masking circuit ``C~`` repairs the resulting output
errors.  The unit of work is a :class:`ShardSpec` — one (circuit, fault
mode, shard index) cell with its own derived seed — small enough that a
crashed or quarantined worker loses a bounded slice of the campaign, and
fully self-describing so an isolated subprocess can execute it from JSON
alone.

Everything here is deliberately *pure data*: specs round-trip through
JSON (the checkpoint journal stores them verbatim), shard seeds are
derived with SHA-256 so they are stable across interpreters and
``PYTHONHASHSEED`` values, and :func:`plan_campaign` is a deterministic
function of the spec — the foundation for bit-identical resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import CampaignError

#: Journal/report schema version; bump on any incompatible layout change.
SCHEMA_VERSION = 1

#: The injected failure modes the shard executor understands.
FAULT_KINDS = ("delay", "seu", "stuck", "aging", "clock")

#: Default parameters per fault mode; a spec entry overrides per key.
DEFAULT_MODE_PARAMS: dict[str, dict[str, Any]] = {
    # Slow `arcs` randomly chosen speed-path gates by `scale`.
    "delay": {"scale": 2.5, "arcs": 4},
    # One transient bit-flip on a random internal net per vector.
    "seu": {"flips": 1},
    # One random net stuck at a random constant for the whole shard.
    "stuck": {},
    # Age all speed-path gates with a named wearout model at stress time t.
    "aging": {"model": "linear", "rate": 0.1, "t": 8.0},
    # No fault: overclock so natural speed paths miss the sample edge.
    "clock": {"fraction": 0.6},
}


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, ASCII only."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def derive_seed(campaign_seed: int, *parts: Any) -> int:
    """A stable 63-bit stream seed from the campaign seed and a label path.

    SHA-256 based so it is identical across processes and platforms —
    shard results must not depend on which worker (or retry) ran them.
    """
    payload = canonical_json([campaign_seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def normalize_mode(mode: Mapping[str, Any] | str) -> dict[str, Any]:
    """Validate a fault-mode spec and fill in defaulted parameters."""
    if isinstance(mode, str):
        mode = {"kind": mode}
    kind = mode.get("kind")
    if kind not in FAULT_KINDS:
        raise CampaignError(
            f"unknown fault mode {kind!r}; choose from {FAULT_KINDS}"
        )
    merged = dict(DEFAULT_MODE_PARAMS[kind])
    for key, value in mode.items():
        if key == "kind":
            continue
        if key not in merged:
            raise CampaignError(
                f"fault mode {kind!r} has no parameter {key!r} "
                f"(valid: {tuple(merged)})"
            )
        merged[key] = value
    return {"kind": kind, **merged}


def mode_key(mode: Mapping[str, Any]) -> str:
    """Compact stable identifier of a normalized mode, e.g. ``seu(flips=1)``."""
    params = ",".join(
        f"{k}={mode[k]}" for k in sorted(mode) if k != "kind"
    )
    return f"{mode['kind']}({params})"


@dataclass(frozen=True)
class CampaignSpec:
    """The full, JSON-serializable description of a campaign."""

    circuits: tuple[str, ...]
    modes: tuple[dict, ...]
    shards_per_cell: int = 2
    vectors_per_shard: int = 128
    seed: int = 0
    clock_fraction: float = 0.85
    threshold: float = 0.9
    library: str = "lsi10k_like"

    def __post_init__(self) -> None:
        if not self.circuits:
            raise CampaignError("campaign needs at least one circuit")
        if not self.modes:
            raise CampaignError("campaign needs at least one fault mode")
        if self.shards_per_cell <= 0:
            raise CampaignError(
                f"shards_per_cell {self.shards_per_cell} must be positive"
            )
        if self.vectors_per_shard < 0:
            raise CampaignError(
                f"vectors_per_shard {self.vectors_per_shard} must be non-negative"
            )
        if not 0.0 < self.clock_fraction <= 2.0:
            raise CampaignError(
                f"clock_fraction {self.clock_fraction} outside (0, 2]"
            )
        object.__setattr__(
            self, "modes", tuple(normalize_mode(m) for m in self.modes)
        )
        object.__setattr__(self, "circuits", tuple(self.circuits))

    def to_json(self) -> dict:
        return {
            "circuits": list(self.circuits),
            "modes": [dict(m) for m in self.modes],
            "shards_per_cell": self.shards_per_cell,
            "vectors_per_shard": self.vectors_per_shard,
            "seed": self.seed,
            "clock_fraction": self.clock_fraction,
            "threshold": self.threshold,
            "library": self.library,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        try:
            return cls(
                circuits=tuple(data["circuits"]),
                modes=tuple(data["modes"]),
                shards_per_cell=data["shards_per_cell"],
                vectors_per_shard=data["vectors_per_shard"],
                seed=data["seed"],
                clock_fraction=data["clock_fraction"],
                threshold=data["threshold"],
                library=data["library"],
            )
        except KeyError as exc:
            raise CampaignError(
                f"campaign spec missing field {exc.args[0]!r}"
            ) from None

    def fingerprint(self) -> str:
        """SHA-256 of the canonical spec; identifies a campaign across runs."""
        return hashlib.sha256(canonical_json(self.to_json()).encode()).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One isolated slice of work: fully self-describing, deterministic."""

    index: int
    circuit: str
    mode: dict = field(compare=False)
    vectors: int = 128
    seed: int = 0
    clock_fraction: float = 0.85
    threshold: float = 0.9
    library: str = "lsi10k_like"

    @property
    def mode_key(self) -> str:
        return mode_key(self.mode)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "circuit": self.circuit,
            "mode": dict(self.mode),
            "vectors": self.vectors,
            "seed": self.seed,
            "clock_fraction": self.clock_fraction,
            "threshold": self.threshold,
            "library": self.library,
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical shard JSON.

        It seeds the shard's retry jitter and is the correlation id its
        worker spans carry.
        """
        try:
            text = canonical_json(self.to_json())
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"shard {self.index} is not JSON-serializable: {exc}"
            ) from None
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ShardSpec":
        try:
            return cls(
                index=data["index"],
                circuit=data["circuit"],
                mode=normalize_mode(data["mode"]),
                vectors=data["vectors"],
                seed=data["seed"],
                clock_fraction=data["clock_fraction"],
                threshold=data["threshold"],
                library=data["library"],
            )
        except KeyError as exc:
            raise CampaignError(f"shard spec missing field {exc.args[0]!r}") from None


def plan_campaign(spec: CampaignSpec) -> tuple[ShardSpec, ...]:
    """Expand a campaign into its deterministic shard list.

    Shard order — and therefore shard indices and derived seeds — is a pure
    function of the spec: circuits x modes x shard slot, in spec order.
    """
    shards: list[ShardSpec] = []
    for circuit in spec.circuits:
        for mode in spec.modes:
            for slot in range(spec.shards_per_cell):
                index = len(shards)
                shards.append(
                    ShardSpec(
                        index=index,
                        circuit=circuit,
                        mode=mode,
                        vectors=spec.vectors_per_shard,
                        seed=derive_seed(spec.seed, circuit, mode_key(mode), slot),
                        clock_fraction=spec.clock_fraction,
                        threshold=spec.threshold,
                        library=spec.library,
                    )
                )
    return tuple(shards)
