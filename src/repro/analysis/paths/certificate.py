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
  so no pattern reaches the output late along the path.

* ``true`` — *sensitizable with a replayed witness*: a concrete two-vector
  transition ``v1 -> v2`` whose event-simulator waveform at the path's
  output settles after the target.  ``rank`` orders true paths for masking
  (longest, latest-settling first).

* ``unresolved`` — the analysis ran out of budget (path enumeration cap,
  witness replay budget, or cone size); no claim is made.

Certificates are checkable evidence, not trust.  Each certificate's
fingerprint is the SHA-256 of the canonical JSON of
``{"circuit": circuit_fp, **content}``: its nets, delay, target, verdict and
facts, chained to :func:`circuit_fingerprint` of the exact circuit.  The
set's ``threshold``/``target`` header is descriptive and **not signed** — a
strict load accepts any edit to it — so the ABS013 audit reads each
certificate's own ``target``.

A strict load (``verify=True``, the only safe way to *use* loaded evidence)
re-derives every fingerprint and raises :class:`~repro.errors.PathsError` on
a mismatch or a repeated path; a forensic load (``verify=False``) admits
edited entries so the audit can refuse them by name.  A loaded set re-emits
its fingerprints *as stored*, so saving a tampered set never re-signs it; a
fresh set stores none and hashes only when emitted, keeping fingerprint cost
out of certificate production.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import PathsError
from repro.netlist.circuit import Circuit

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

_NOUN = "path-certificate"


def _sha256(data: Any) -> str:
    """SHA-256 of the canonical JSON of ``data`` (all fingerprint material)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: Circuit | CompiledCircuit) -> str:
    """Content-addressed SHA-256 over the exact compiled circuit structure.

    Covers everything the certified claims depend on: net names and order,
    per-gate cell identity, fanins, and pin delays, and the output list.
    Renaming a net, swapping a cell, or retiming a single arc all change the
    fingerprint, so stale certificates can never be replayed against an
    edited circuit.
    """
    compiled = compile_circuit(circuit)
    return _sha256(
        {
            "name": compiled.name,
            "inputs": list(compiled.inputs),
            "outputs": list(compiled.outputs),
            "nets": list(compiled.net_names),
            "gates": [
                {"cell": cell.name, "fanins": list(fanins), "delays": list(delays)}
                for cell, fanins, delays in zip(
                    compiled.gate_cells, compiled.gate_fanins, compiled.gate_delays
                )
            ],
        }
    )


@dataclass(frozen=True)
class PathCertificate:
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

        The activation criterion is the one derived from Eqn. 1, so a
        prunable path adds no late pattern to the output's Sigma; the
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
        """Exactly what the fingerprint signs."""
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

    def fingerprint(self, circuit_fp: str) -> str:
        """SHA-256 binding this certificate to one circuit fingerprint."""
        return _sha256({"circuit": circuit_fp, **self.content()})


class PathCertificateSet:
    """All path certificates of one analysis run, keyed by the net tuple."""

    def __init__(
        self,
        circuit_name: str,
        circuit_fp: str,
        threshold: float,
        target: int,
        certificates: Mapping[tuple[str, ...], PathCertificate],
        stored_fingerprints: Mapping[tuple[str, ...], str] | None = None,
    ) -> None:
        self.circuit_name = circuit_name
        self.circuit_fp = circuit_fp
        self.threshold = threshold
        self.target = target
        self._by_key = dict(certificates)
        # The fingerprints as *found in a loaded file*; ``tampered()``
        # compares them against re-derived ones.  A fresh set carries none.
        self._stored_fp = (
            dict(stored_fingerprints) if stored_fingerprints is not None else None
        )

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[PathCertificate]:
        return iter(self._by_key.values())

    def _sorted(self) -> list[PathCertificate]:
        return sorted(self._by_key.values(), key=lambda cert: cert.nets)

    def counts(self) -> dict[str, int]:
        """Certificate totals by verdict (every verdict key always present)."""
        out = {v: 0 for v in VERDICTS}
        for cert in self._by_key.values():
            out[cert.verdict] += 1
        return out

    def matches(self, circuit: Circuit | CompiledCircuit) -> bool:
        """True iff this set was produced from exactly this circuit."""
        return circuit_fingerprint(circuit) == self.circuit_fp

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

    # ------------------------------------------------------------ integrity

    def tampered(self) -> list[PathCertificate]:
        """Certificates whose stored fingerprint no longer re-derives.

        Only a ``verify=False`` load of an edited file reports here; the
        audit refuses these before any cross-checking.
        """
        stored = self._stored_fp
        if stored is None:
            return []
        return [
            cert
            for cert in self._sorted()
            if stored.get(cert.nets) != cert.fingerprint(self.circuit_fp)
        ]

    # -------------------------------------------------------------- JSON IO

    def to_dict(self) -> dict[str, Any]:
        # A loaded entry re-emits its fingerprint as stored, never a
        # re-derived one: saving a tampered set must not re-sign it.
        stored = self._stored_fp or {}
        return {
            "schema": SCHEMA,
            "circuit": self.circuit_name,
            "circuit_fingerprint": self.circuit_fp,
            "threshold": self.threshold,
            "target": self.target,
            "certificates": [
                {
                    **cert.content(),
                    "fingerprint": (
                        stored[cert.nets]
                        if cert.nets in stored
                        else cert.fingerprint(self.circuit_fp)
                    ),
                }
                for cert in self._sorted()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], verify: bool = True
    ) -> PathCertificateSet:
        """Rebuild a set from its JSON form.

        ``verify=True`` re-derives every stored fingerprint and raises
        :class:`~repro.errors.PathsError` on a mismatch; ``verify=False``
        admits edited entries so the audit can refuse them.  A repeated path
        raises either way.
        """
        if data.get("schema") != SCHEMA:
            raise PathsError(
                f"unsupported {_NOUN} schema {data.get('schema')!r}; "
                f"expected {SCHEMA!r}"
            )
        try:
            circuit_fp = str(data["circuit_fingerprint"])
            circuit_name = str(data["circuit"])
            threshold = float(data["threshold"])
            target = int(data["target"])
            entries = list(data["certificates"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PathsError(f"malformed {_NOUN} set: {exc}") from exc
        by_key: dict[tuple[str, ...], PathCertificate] = {}
        stored: dict[tuple[str, ...], str] = {}
        for entry in entries:
            try:
                cert = PathCertificate.from_content(entry)
                stored_fp = str(entry["fingerprint"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PathsError(f"malformed {_NOUN} entry: {exc}") from exc
            label = f"path {'->'.join(cert.nets)}"
            if cert.nets in by_key:
                # A later duplicate would silently replace the earlier one,
                # and a re-save would drop it: refuse the file instead.
                raise PathsError(f"{_NOUN} set holds a duplicate entry for {label}")
            if verify and cert.fingerprint(circuit_fp) != stored_fp:
                raise PathsError(
                    f"certificate for {label} fails fingerprint "
                    "verification: content or circuit binding was modified "
                    "after emission"
                )
            by_key[cert.nets] = cert
            stored[cert.nets] = stored_fp
        return cls(
            circuit_name=circuit_name,
            circuit_fp=circuit_fp,
            threshold=threshold,
            target=target,
            certificates=by_key,
            stored_fingerprints=stored,
        )

    @classmethod
    def from_json(cls, text: str, verify: bool = True) -> PathCertificateSet:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PathsError(f"unreadable {_NOUN} JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise PathsError(f"{_NOUN} JSON must be an object")
        return cls.from_dict(data, verify=verify)


__all__ = [
    "SCHEMA",
    "VERDICTS",
    "METHODS",
    "PathCertificate",
    "PathCertificateSet",
    "circuit_fingerprint",
]
