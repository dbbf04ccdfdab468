"""Machine-checkable certificates for speed-path sensitization verdicts.

The paths analyzer classifies every enumerated speed-path (a structural
input-to-output path with delay above the target ``Delta_y``) into one of
three verdicts, each carrying the evidence a checker needs to re-derive it:

* ``false`` — *statically unsensitizable*: the conjunction of the per-segment
  side-input sensitization conditions is unsatisfiable, so no input vector
  propagates a transition along the whole path.  The facts cite the method
  (``ternary`` pre-filter, ``exhaustive`` word evaluation, or ``bdd``) and
  the per-segment condition functions; ``prunable`` additionally records
  that the *activation* conditions (the weaker prime-implicant criterion
  that soundly bounds the paper's Eqn. 1 recursion) are unsatisfiable too,
  which licenses tightening the true-arrival bound of the path's output.

* ``true`` — *sensitizable with a replayed witness*: a concrete two-vector
  transition ``v1 -> v2`` whose event-simulator waveform at the path's
  output settles after the target.  ``rank`` orders true paths for masking
  (longest, latest-settling first).

* ``unresolved`` — the analysis ran out of budget (path enumeration cap,
  witness replay budget, or cone size); no claim is made.

Like the precert plane, the set is a
:class:`~repro.analysis.envelope.CertificateEnvelope`: each certificate's
fingerprint signs its nets, delay, target, verdict and facts, chained to
the exact circuit structure; the ``threshold``/``target`` header is not
signed, so the ABS013 audit reads each certificate's own ``target``.  Any
tampering with a signed field is detected on strict load and refused by
the audit with a distinct diagnostic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.envelope import CertificateEnvelope, SignedEntry, circuit_fingerprint
from repro.errors import PathsError

#: Serialization schema of :meth:`PathCertificateSet.to_dict`.
SCHEMA = "repro-paths/1"

#: Allowed verdicts, in strength-of-claim order.
VERDICTS = ("false", "true", "unresolved")

#: Classification methods a verdict may cite.
METHODS = (
    "ternary",  # all-X constant side inputs block every activation prime
    "exhaustive",  # word-parallel evaluation over all 2**n stimuli
    "bdd",  # side-input condition functions composed as BDDs
    "none",  # unresolved: no method succeeded within budget
)


@dataclass(frozen=True)
class PathCertificate(SignedEntry):
    """One classified speed-path with its evidence.

    ``nets`` is the structural path, input-first (the key of the set);
    ``delay`` its structural delay; ``target`` the ``Delta_y`` it exceeds.
    ``facts`` is the JSON-ready evidence payload (segment conditions,
    witness vectors, or the budget reason).
    """

    nets: tuple[str, ...]
    delay: int
    target: int
    verdict: str
    facts: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise PathsError(
                f"unknown path verdict {self.verdict!r}; "
                f"expected one of {VERDICTS}"
            )
        if len(self.nets) < 2:
            raise PathsError(
                f"path certificate needs at least 2 nets, got {self.nets!r}"
            )

    @property
    def key(self) -> tuple[str, ...]:
        return self.nets

    @property
    def label(self) -> str:
        return f"path {'->'.join(self.nets)}"

    @property
    def sort_key(self) -> tuple[str, ...]:
        return self.nets

    @property
    def start(self) -> str:
        return self.nets[0]

    @property
    def end(self) -> str:
        return self.nets[-1]

    @property
    def method(self) -> str:
        return str(self.facts.get("method", "none"))

    @property
    def prunable(self) -> bool:
        """True iff the activation conditions are proven unsatisfiable.

        Only prunable FALSE paths may tighten true-arrival bounds: the
        activation criterion is the one derived from Eqn. 1, while the
        classic sensitization condition (which decides FALSE) is strictly
        stronger and not sound for pruning the recursion.
        """
        return self.verdict == "false" and bool(self.facts.get("prunable"))

    @property
    def rank(self) -> int | None:
        """Masking priority of a TRUE path (1 = mask first), else ``None``."""
        value = self.facts.get("rank")
        return int(value) if value is not None else None

    def content(self) -> dict[str, Any]:
        return {
            "nets": list(self.nets),
            "delay": self.delay,
            "target": self.target,
            "verdict": self.verdict,
            "facts": dict(self.facts),
        }

    @classmethod
    def from_content(cls, entry: Mapping[str, Any]) -> PathCertificate:
        return cls(
            nets=tuple(str(n) for n in entry["nets"]),
            delay=int(entry["delay"]),
            target=int(entry["target"]),
            verdict=str(entry["verdict"]),
            facts=dict(entry["facts"]),
        )


class PathCertificateSet(CertificateEnvelope[PathCertificate]):
    """All path certificates of one analysis run, keyed by the net tuple."""

    SCHEMA = SCHEMA
    VERDICTS = VERDICTS
    ENTRY = PathCertificate
    ERROR = PathsError
    NOUN = "path-certificate"

    def __init__(
        self,
        circuit_name: str,
        circuit_fp: str,
        threshold: float,
        target: int,
        certificates: Mapping[tuple[str, ...], PathCertificate],
        stored_fingerprints: Mapping[tuple[str, ...], str] | None = None,
    ) -> None:
        super().__init__(circuit_name, circuit_fp, certificates, stored_fingerprints)
        self.threshold = threshold
        self.target = target

    def _header(self) -> dict[str, Any]:
        return {"threshold": self.threshold, "target": self.target}

    @classmethod
    def _read_header(cls, data: Mapping[str, Any]) -> dict[str, Any]:
        return {"threshold": float(data["threshold"]), "target": int(data["target"])}

    def lookup(self, nets: tuple[str, ...]) -> PathCertificate | None:
        return self._by_key.get(nets)

    def by_verdict(self, verdict: str) -> tuple[PathCertificate, ...]:
        return tuple(cert for cert in self._sorted() if cert.verdict == verdict)

    def false_paths(self) -> tuple[PathCertificate, ...]:
        return self.by_verdict("false")

    def true_paths(self) -> tuple[PathCertificate, ...]:
        return self.by_verdict("true")

    def unresolved_paths(self) -> tuple[PathCertificate, ...]:
        return self.by_verdict("unresolved")

    def ranked_true_paths(self) -> tuple[PathCertificate, ...]:
        """TRUE paths in masking-priority order (rank 1 first)."""
        return tuple(
            sorted(
                self.true_paths(),
                key=lambda c: (c.rank if c.rank is not None else 1 << 30, c.nets),
            )
        )


__all__ = [
    "SCHEMA",
    "VERDICTS",
    "METHODS",
    "PathCertificate",
    "PathCertificateSet",
    "circuit_fingerprint",
]
