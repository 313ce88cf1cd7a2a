"""Three-valued decisions with certificates.

Every definite verdict carries a certificate that an independent checker
can validate; Unknown never asserts anything and records why the search
gave up instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Verdicted:
    """The yes/no/unknown views of a result's verdict field.

    A plain base, not a dataclass: it adds no field, so the results
    built on it keep their field order, positional construction and repr.
    """

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


@dataclass(frozen=True)
class Decision(Verdicted):
    """Answer to a single word-problem style query."""

    verdict: Verdict
    certificate: Any = None


@dataclass(frozen=True)
class PowerDecision(Verdicted):
    """Answer to "is w a power of u": Yes carries the exponent."""

    verdict: Verdict
    p: int | None = None
    certificate: Any = None


class OracleUnknown(Exception):
    """Raised when a computation cannot proceed past an Unknown verdict."""
