"""The certificate envelope shared by the precert and paths evidence planes.

Certificates are checkable evidence, not trust.  Each entry's fingerprint
is ``sha256(canonical_json({"circuit": circuit_fp, **content}))``: its own
fields, chained to :func:`circuit_fingerprint` of the exact circuit.  The
set's header fields (precert ``targets``, paths ``threshold``/``target``)
are descriptive and **not signed** — a strict load accepts any edit to
them — so no check may trust a header value that no signed entry carries.

A strict load (``verify=True``, the only safe way to *use* loaded
evidence) re-derives every fingerprint and raises the plane's error on a
mismatch or a repeated key; a forensic load (``verify=False``) admits
edited entries so the plane's audit can refuse them by name.  A loaded set
re-emits its fingerprints *as stored*, so saving a tampered set never
re-signs it; a fresh set stores none and hashes only when emitted, keeping
fingerprint cost out of certificate production.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterator, Mapping
from typing import Any, ClassVar, Generic, TypeVar

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit


def canonical_json(data: Any) -> str:
    """Canonical JSON used for all fingerprint material."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


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


E = TypeVar("E", bound="SignedEntry")
S = TypeVar("S", bound="CertificateEnvelope[Any]")


class SignedEntry(ABC):
    """One certificate; :meth:`content` is exactly what its fingerprint signs.

    ``key`` is its identity within a set, ``label`` names it in error
    messages (``certificate for <label>``), ``sort_key`` fixes emission
    order, and :meth:`from_content` rebuilds it from its JSON form, raising
    ``KeyError``/``TypeError``/``ValueError`` on a malformed entry.
    """

    verdict: str

    @property
    @abstractmethod
    def key(self) -> Hashable: ...

    @property
    @abstractmethod
    def label(self) -> str: ...

    @property
    @abstractmethod
    def sort_key(self) -> tuple[Any, ...]: ...

    @abstractmethod
    def content(self) -> dict[str, Any]: ...

    @classmethod
    @abstractmethod
    def from_content(cls: type[E], entry: Mapping[str, Any]) -> E: ...

    def fingerprint(self, circuit_fp: str) -> str:
        """SHA-256 binding this certificate to one circuit fingerprint."""
        return _sha256({"circuit": circuit_fp, **self.content()})


class CertificateEnvelope(Generic[E]):
    """A set of signed certificates bound to one circuit fingerprint.

    A plane sets its ``SCHEMA``, the ``VERDICTS`` that :meth:`counts`
    reports, the ``ENTRY`` type, the ``ERROR`` class every load failure
    raises, and the ``NOUN`` naming the set in those errors; it adds its
    header fields through :meth:`_header` and :meth:`_read_header`.
    """

    SCHEMA: ClassVar[str]
    VERDICTS: ClassVar[tuple[str, ...]]
    ENTRY: ClassVar[type[SignedEntry]]
    ERROR: ClassVar[type[AnalysisError]]
    NOUN: ClassVar[str]

    def __init__(
        self,
        circuit_name: str,
        circuit_fp: str,
        certificates: Mapping[Any, E],
        stored_fingerprints: Mapping[Any, str] | None = None,
    ) -> None:
        self.circuit_name = circuit_name
        self.circuit_fp = circuit_fp
        self._by_key: dict[Any, E] = dict(certificates)
        # The fingerprints as *found in a loaded file*; ``tampered()``
        # compares them against re-derived ones.  A fresh set carries none.
        self._stored_fp: dict[Any, str] | None = (
            dict(stored_fingerprints) if stored_fingerprints is not None else None
        )

    def _header(self) -> dict[str, Any]:
        """The plane's unsigned header fields, as emitted."""
        return {}

    @classmethod
    def _read_header(cls, data: Mapping[str, Any]) -> dict[str, Any]:
        """Constructor keywords parsed from the header fields."""
        return {}

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[E]:
        return iter(self._by_key.values())

    def _sorted(self) -> list[E]:
        return sorted(self._by_key.values(), key=lambda cert: cert.sort_key)

    def counts(self) -> dict[str, int]:
        """Certificate totals by verdict (every verdict key always present)."""
        out = {v: 0 for v in self.VERDICTS}
        for cert in self._by_key.values():
            out[cert.verdict] += 1
        return out

    def matches(self, circuit: Circuit | CompiledCircuit) -> bool:
        """True iff this set was produced from exactly this circuit."""
        return circuit_fingerprint(circuit) == self.circuit_fp

    # ------------------------------------------------------------ integrity

    def tampered(self) -> list[E]:
        """Certificates whose stored fingerprint no longer re-derives.

        Only a ``verify=False`` load of an edited file reports here; the
        plane's audit refuses these before any cross-checking.
        """
        stored = self._stored_fp
        if stored is None:
            return []
        return [
            cert
            for cert in self._sorted()
            if stored.get(cert.key) != cert.fingerprint(self.circuit_fp)
        ]

    # -------------------------------------------------------------- JSON IO

    def to_dict(self) -> dict[str, Any]:
        # A loaded entry re-emits its fingerprint as stored, never a
        # re-derived one: saving a tampered set must not re-sign it.
        stored = self._stored_fp or {}
        return {
            "schema": self.SCHEMA,
            "circuit": self.circuit_name,
            "circuit_fingerprint": self.circuit_fp,
            **self._header(),
            "certificates": [
                {
                    **cert.content(),
                    "fingerprint": (
                        stored[cert.key]
                        if cert.key in stored
                        else cert.fingerprint(self.circuit_fp)
                    ),
                }
                for cert in self._sorted()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls: type[S], data: Mapping[str, Any], verify: bool = True) -> S:
        """Rebuild a set from its JSON form.

        ``verify=True`` re-derives every stored fingerprint and raises
        ``ERROR`` on a mismatch; ``verify=False`` admits edited entries so
        the audit can refuse them.  A repeated key raises either way.
        """
        noun, error = cls.NOUN, cls.ERROR
        if data.get("schema") != cls.SCHEMA:
            raise error(
                f"unsupported {noun} schema {data.get('schema')!r}; "
                f"expected {cls.SCHEMA!r}"
            )
        try:
            circuit_fp = str(data["circuit_fingerprint"])
            circuit_name = str(data["circuit"])
            header = cls._read_header(data)
            entries = list(data["certificates"])
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"malformed {noun} set: {exc}") from exc
        by_key: dict[Any, Any] = {}
        stored: dict[Any, str] = {}
        for entry in entries:
            try:
                cert = cls.ENTRY.from_content(entry)
                stored_fp = str(entry["fingerprint"])
            except (KeyError, TypeError, ValueError) as exc:
                raise error(f"malformed {noun} entry: {exc}") from exc
            if cert.key in by_key:
                # A later duplicate would silently replace the earlier one,
                # and a re-save would drop it: refuse the file instead.
                raise error(f"{noun} set holds a duplicate entry for {cert.label}")
            if verify and cert.fingerprint(circuit_fp) != stored_fp:
                raise error(
                    f"certificate for {cert.label} fails fingerprint "
                    "verification: content or circuit binding was modified "
                    "after emission"
                )
            by_key[cert.key] = cert
            stored[cert.key] = stored_fp
        return cls(
            circuit_name=circuit_name,
            circuit_fp=circuit_fp,
            certificates=by_key,
            stored_fingerprints=stored,
            **header,
        )

    @classmethod
    def from_json(cls: type[S], text: str, verify: bool = True) -> S:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls.ERROR(f"unreadable {cls.NOUN} JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise cls.ERROR(f"{cls.NOUN} JSON must be an object")
        return cls.from_dict(data, verify=verify)


__all__ = [
    "CertificateEnvelope",
    "SignedEntry",
    "canonical_json",
    "circuit_fingerprint",
]
