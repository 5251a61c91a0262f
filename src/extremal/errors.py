"""Exception types shared across the package, and the work budgets."""


class ExtremalError(Exception):
    """Base class for package-specific errors."""


class FormatError(ExtremalError):
    """Malformed HGR/JSON input or experiment config."""


class BudgetError(ExtremalError):
    """A call would exceed the cap on one unit of its work (see ``CAPS``)."""


# Each call that can run away counts its own work in one unit and refuses
# past that unit's cap; nothing is shared between calls.  "deletion nodes" is
# the exception that does not refuse: past it the edge deletion distance
# comes back inexact.
CAPS = {
    "link sets": 2_000_000,  # enumerate_rgraphs: children built and orbit images formed
    "ascent steps": 200_000,  # lagrangian.maximize: gradient steps over all its ascents
    "support subsets": 2**14 - 1,  # lagrangian.maximize: vertex subsets one support walk visits
    "compositions": 10**6,  # ex_via_patterns: compositions of n over all its patterns
    "expansion members": 200_000,  # family_members: raw members of a weak-expansion family
    "deletion nodes": 2_000_000,  # edge_deletion_distance: branch-and-bound nodes
}


class Meter:
    """The work of one call in one unit of ``CAPS``, whose cap is read when
    the meter is made."""

    __slots__ = ("unit", "count", "cap")

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.count = 0
        self.cap = CAPS[unit]

    def tick(self, k: int = 1) -> None:
        """Count ``k`` more units; raise ``BudgetError`` once past the cap."""
        self.count += k
        if self.count > self.cap:
            raise BudgetError(f"{self.count} {self.unit} past the cap of {self.cap}")


class SoundnessError(ExtremalError):
    """A runtime check of an invariant that theory guarantees has failed.

    Raised instead of silently proceeding; carries enough context to turn the
    failure into a reportable counterexample.
    """
