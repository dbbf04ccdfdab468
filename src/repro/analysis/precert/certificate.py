"""Machine-checkable certificates for SPCF ``(node, t)`` timing obligations.

A *timing obligation* is one ``(node, t)`` pair arising in the paper's Eqn. 1
recursion: "compute the stabilized-by-``t`` characteristic functions of
``node``".  The pre-certification pass classifies every obligation before any
BDD is built:

* ``discharged`` — the answer is statically known.  The certificate names the
  abstract domain that proved it and carries the fixpoint facts used:

  - ``on-time`` (arrival-interval domain): ``t >= arrival[node]``, so every
    pattern has stabilized and ``(S0, S1) = (~F, F)``;
  - ``all-late`` (min-stable domain): ``t < min_stable[node]``, so no pattern
    can have stabilized and ``(S0, S1) = (0, 0)``;
  - ``constant`` (all-X Kleene ternary domain): the node's *global function*
    is constant, so ``F`` may be substituted by a BDD terminal.  Floating-mode
    stabilization is untouched — a constant-function net still settles late
    under an arbitrary initial state — so constant certificates shortcut only
    the global-function map, never ``stable()`` itself.

* ``refuted`` — the hope that the output settles on time for every pattern is
  disproved by a concrete witness: a two-vector transition replayed through
  the event simulator whose output waveform settles *after* ``t``.  Since a
  pure-delay waveform settling at ``s`` lower-bounds the floating-mode
  stabilization time, the witness proves the exact late set is non-empty.

* ``required`` — no static verdict; the obligation must go to the BDD plane.

The set is a :class:`~repro.analysis.envelope.CertificateEnvelope`: each
certificate's fingerprint signs its node, time, verdict, domain and facts,
chained to the exact circuit structure; the ``targets`` header is not
signed.  Tampering with any signed field or the circuit binding is detected
on strict load and refused by the ABS009 audit with a distinct diagnostic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.envelope import CertificateEnvelope, SignedEntry, circuit_fingerprint
from repro.errors import PrecertError

#: Serialization schema of :meth:`CertificateSet.to_dict`.
SCHEMA = "repro-precert/1"

#: Allowed verdicts, in severity-of-claim order.
VERDICTS = ("discharged", "refuted", "required")

#: Abstract domains a discharged certificate may cite.
DOMAINS = (
    "arrival-interval",  # on-time: t >= arrival[node]
    "min-stable",  # all-late: t < min_stable[node]
    "ternary-allx",  # constant global function
    "event-sim",  # refuted: replayed late-settling witness
    "true-arrival",  # on-time via false-path-pruned arrival (paths analysis)
    "none",  # required: no static verdict
)


@dataclass(frozen=True)
class Certificate(SignedEntry):
    """One classified ``(node, t)`` obligation with its evidence.

    ``time`` is ``None`` only for ``constant`` facts, which hold at every
    ``t`` (they speak about the global function, not about stabilization).
    ``facts`` is the JSON-ready evidence payload: the fixpoint facts a
    checker needs to re-derive the verdict (arrival/min-stable bounds, the
    constant value, or the refutation witness).
    """

    node: str
    time: int | None
    verdict: str
    domain: str
    facts: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise PrecertError(
                f"unknown certificate verdict {self.verdict!r}; "
                f"expected one of {VERDICTS}"
            )
        if self.domain not in DOMAINS:
            raise PrecertError(
                f"unknown certificate domain {self.domain!r}; "
                f"expected one of {DOMAINS}"
            )

    @property
    def key(self) -> tuple[str, int | None]:
        return (self.node, self.time)

    @property
    def label(self) -> str:
        return f"({self.node!r}, t={self.time})"

    @property
    def sort_key(self) -> tuple[str, bool, int]:
        time = self.time
        return (self.node, time is not None, time if time is not None else 0)

    @property
    def kind(self) -> str:
        """The discharge flavour: ``on-time``/``all-late``/``constant``/...."""
        return str(self.facts.get("kind", self.verdict))

    def content(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "time": self.time,
            "verdict": self.verdict,
            "domain": self.domain,
            "facts": dict(self.facts),
        }

    @classmethod
    def from_content(cls, entry: Mapping[str, Any]) -> Certificate:
        return cls(
            node=str(entry["node"]),
            time=None if entry["time"] is None else int(entry["time"]),
            verdict=str(entry["verdict"]),
            domain=str(entry["domain"]),
            facts=dict(entry["facts"]),
        )


class CertificateSet(CertificateEnvelope[Certificate]):
    """All certificates of one pre-certification run, indexed by obligation.

    One set spans every target threshold of a (possibly multi-root) SPCF
    query; obligations are keyed on absolute ``(node, t)`` so queries at
    different thresholds share discharged facts.
    """

    SCHEMA = SCHEMA
    VERDICTS = VERDICTS
    ENTRY = Certificate
    ERROR = PrecertError
    NOUN = "certificate"

    def __init__(
        self,
        circuit_name: str,
        circuit_fp: str,
        targets: tuple[int, ...],
        certificates: Mapping[tuple[str, int | None], Certificate],
        stored_fingerprints: Mapping[tuple[str, int | None], str] | None = None,
    ) -> None:
        super().__init__(circuit_name, circuit_fp, certificates, stored_fingerprints)
        self.targets = tuple(sorted(targets))

    def _header(self) -> dict[str, Any]:
        return {"targets": list(self.targets)}

    @classmethod
    def _read_header(cls, data: Mapping[str, Any]) -> dict[str, Any]:
        return {"targets": tuple(int(t) for t in data["targets"])}

    def lookup(self, node: str, time: int) -> Certificate | None:
        """The certificate for obligation ``(node, time)``, if any."""
        return self._by_key.get((node, time))

    def constant_value(self, node: str) -> bool | None:
        """The proven-constant global value of ``node``, if certified."""
        cert = self._by_key.get((node, None))
        if cert is None or cert.kind != "constant":
            return None
        return bool(cert.facts["value"])

    def discharge_rate(self) -> float:
        """Fraction of obligations discharged (1.0 for an empty set)."""
        if not self._by_key:
            return 1.0
        return self.counts()["discharged"] / len(self._by_key)

    def for_output(self, output: str, target: int) -> Certificate | None:
        """The top-level certificate of one ``(output, target)`` query."""
        return self.lookup(output, target)


__all__ = [
    "SCHEMA",
    "VERDICTS",
    "DOMAINS",
    "Certificate",
    "CertificateSet",
    "circuit_fingerprint",
]
