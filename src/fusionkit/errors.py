"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class FusionkitError(Exception):
    """Base class for all library errors."""


class CapExceeded(FusionkitError):
    """A configured size cap (group order, lattice size) was exceeded."""


class NotAGroup(FusionkitError):
    """Input data does not describe a group."""


class ParseError(FusionkitError):
    """A group or system file could not be parsed."""


class NotNormal(FusionkitError):
    """A subgroup expected to be normal is not."""


class NotSylow(FusionkitError):
    """A subgroup expected to be a Sylow p-subgroup is not."""


class MorphismOutsideSupport(FusionkitError):
    """A generator morphism leaves the support of a generated subsystem."""


class DomainMismatch(FusionkitError):
    """Morphism domains/codomains do not line up for the requested operation."""


class NotStronglyClosed(FusionkitError):
    """The support of a candidate invariant subsystem is not strongly closed."""


class NotSaturated(FusionkitError):
    """An operation required a saturated fusion system."""


class NotConstrained(FusionkitError):
    """Model construction was requested for a non-constrained system."""


class NotCentralizing(FusionkitError):
    """Central product requested for subsystems that do not centralize each other."""


class VerificationFailed(FusionkitError):
    """A construct-then-verify step found the construction to be wrong.

    This is an internal-consistency alarm: the constructions used here are
    expected to succeed on valid input, so a failure indicates corrupted
    input or a bug, never a normal outcome.
    """


class TheoremViolation(VerificationFailed):
    """A verified theorem assertion failed on concrete data (alarm)."""


class ModelNotFound(VerificationFailed):
    """No normal subgroup of a model realizes the requested subsystem."""


class ModelNotUnique(VerificationFailed):
    """More than one normal subgroup of a model realizes the subsystem."""
