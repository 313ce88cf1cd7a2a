"""Three-valued decisions with certificates.

Every definite verdict carries a certificate that an independent checker
can validate; Unknown never asserts anything and records why the search
gave up instead.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Verdicted:
    """The yes/no/unknown views of a result's verdict field.

    A mixin that adds no field: each result subclasses a NamedTuple of
    its fields and this mixin, both with empty __slots__, so it keeps its
    field order, positional construction and repr, and its instances
    are tuples without a __dict__.
    """

    __slots__ = ()

    verdict: Verdict

    @property
    def yes(self) -> bool:
        return self.verdict is Verdict.YES

    @property
    def no(self) -> bool:
        return self.verdict is Verdict.NO

    @property
    def unknown(self) -> bool:
        return self.verdict is Verdict.UNKNOWN


class _DecisionFields(NamedTuple):
    verdict: Verdict
    certificate: Any = None


class Decision(_DecisionFields, Verdicted):
    """Answer to a single word-problem style query."""

    __slots__ = ()


class _PowerDecisionFields(NamedTuple):
    verdict: Verdict
    p: int | None = None
    certificate: Any = None


class PowerDecision(_PowerDecisionFields, Verdicted):
    """Answer to "is w a power of u": Yes carries the exponent."""

    __slots__ = ()


class OracleUnknown(Exception):
    """Raised when a computation cannot proceed past an Unknown verdict."""
