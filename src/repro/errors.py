"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Subsystems raise the most specific subclass
that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class BddError(ReproError):
    """Raised for invalid BDD manager operations (bad variable, mixed managers)."""


class LogicError(ReproError):
    """Raised for malformed cubes, covers, or Boolean expressions."""


class ExprSyntaxError(LogicError):
    """Raised when a Boolean expression string cannot be parsed."""


class NetlistError(ReproError):
    """Raised for structurally invalid circuits (cycles, dangling nets, arity)."""


class LibraryError(NetlistError):
    """Raised when a cell or library definition is inconsistent."""


class BlifError(NetlistError):
    """Raised when a BLIF file cannot be parsed."""


class TimingError(ReproError):
    """Raised for invalid static-timing queries (unknown net, bad threshold)."""


class SimulationError(ReproError):
    """Raised when a simulation is driven with malformed stimuli."""


class EngineError(ReproError):
    """Raised by :mod:`repro.engine` (malformed word batch, negative width)."""


class ObsError(ReproError):
    """Raised by :mod:`repro.obs` (bad metric names, malformed trace files)."""


class CampaignError(ReproError):
    """Raised by :mod:`repro.campaign` (bad specs, runner misconfiguration)."""


class CheckpointError(CampaignError):
    """Raised for unusable campaign checkpoints (corruption, spec mismatch)."""


class SpcfError(ReproError):
    """Raised when an SPCF computation is requested with invalid parameters."""


class SynthesisError(ReproError):
    """Raised when technology-independent network manipulation fails."""


class MaskingError(ReproError):
    """Raised when error-masking synthesis cannot satisfy its invariants."""


class AnalysisError(ReproError):
    """Raised by the static-analysis subsystem (:mod:`repro.analysis`)."""


class LintError(AnalysisError):
    """Raised for invalid linter configuration (unknown rule ids, bad limits)."""


class VerificationError(AnalysisError):
    """Raised when formal verification of a masking circuit finds a violation."""
