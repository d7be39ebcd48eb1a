"""Exception hierarchy and the debug-assertion switch.

Setting the environment variable EQUICOLOR_DEBUG_ASSERT=1 turns on the
expensive internal consistency checks (exhaustive postcondition scans,
per-step bookkeeping).  Release runs keep only the cheap global assertions.
"""

import os


def debug_checks_enabled() -> bool:
    return os.environ.get("EQUICOLOR_DEBUG_ASSERT", "") == "1"


class EquicolorError(Exception):
    """Base class for all domain errors raised by this package."""


# graph construction and queries

class OutOfRange(EquicolorError):
    pass


class SelfLoop(EquicolorError):
    pass


class DuplicateEdge(EquicolorError):
    pass


class EmptyGraph(EquicolorError):
    pass


class NotAComponent(EquicolorError):
    pass


# colorings

class ImproperSeed(EquicolorError):
    pass


class PaletteTooSmall(EquicolorError):
    pass


class NotIndependent(EquicolorError):
    pass


# distributions and the convergence ledger

class PaletteMismatch(EquicolorError):
    pass


class NotComparable(EquicolorError):
    pass


class LedgerViolation(EquicolorError):
    """Base for ledger check failures; carries the offending step payload."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MonotonicityViolation(LedgerViolation):
    pass


class HypothesisViolation(LedgerViolation):
    pass


class BoundViolation(LedgerViolation):
    """Cumulative movement exceeded the guaranteed budget: a driver bug."""


# recoloring dynamics

class SignatureMismatch(EquicolorError):
    pass


class NotSeparated(EquicolorError):
    pass


class UnacceptableMove(EquicolorError):
    pass


class Stalled(EquicolorError):
    """No admissible move of size at most three at class gap >= 2.

    The driver raises it at the first such coloring.  Carries the stuck
    coloring and its class-size gap so callers can archive the pattern.
    """

    def __init__(self, message, coloring=None, gap=None):
        super().__init__(message)
        self.coloring = coloring
        self.gap = gap


# list-coloring domination

class NotConnected(EquicolorError):
    pass


class NotDegreeList(EquicolorError):
    pass


class GallaiTree(EquicolorError):
    pass


# one-ended forests

class ComponentMissesAnchor(EquicolorError):
    pass


class RegularGallaiComponent(EquicolorError):
    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


# pipeline

class PreconditionViolated(EquicolorError):
    def __init__(self, message, name=None, values=None):
        super().__init__(message)
        self.name = name
        self.values = values or {}


class ImproperInput(EquicolorError):
    pass


class ImproperAux(EquicolorError):
    pass


# oracle

class BudgetExceeded(EquicolorError):
    pass


# instance I/O and generation

class ParseError(EquicolorError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class HeaderMismatch(EquicolorError):
    pass


class InfeasibleParameters(EquicolorError):
    pass
