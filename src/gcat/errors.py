"""Exception types shared across the library.

Every size-related refusal carries the offending count and the active cap so
callers can tell a mathematical verdict from a resource refusal.
"""


class GcatError(Exception):
    """Base class for all library errors."""


class AssociativityViolation(GcatError):
    """(g∘f)∘h differs from g∘(f∘h); message names the triple."""


class IdentityViolation(GcatError):
    """An identity law fails; message names the morphism."""


class DanglingReference(GcatError):
    """A table refers to an unknown id, or the composition table is not
    exactly total on composable pairs."""


class SizeCapExceeded(GcatError):
    def __init__(self, what, count, cap):
        super().__init__(f"{what}: {count} exceeds cap {cap}")
        self.what = what
        self.count = count
        self.cap = cap


class NotASubcategoryInclusion(GcatError):
    """Functor is not injective on objects / fully faithful onto its image."""


class NotASubgroup(GcatError):
    pass


class NotAHomomorphism(GcatError):
    pass


class ActionNotFree(GcatError):
    """Carries a witness pair (element, group element)."""

    def __init__(self, element, group_element):
        super().__init__(f"action not free: {element!r} fixed by {group_element!r}")
        self.witness = (element, group_element)


class SubgroupNotInUnits(GcatError):
    pass


class EquivarianceViolation(GcatError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPosetNerve(GcatError):
    """h is computed exactly on nerves of posets only."""


class Inconclusive(GcatError):
    """Honest 'cannot decide at this cap' verdict of the pushout oracle.

    Not a failure: carries the first non-closing word.
    """

    def __init__(self, word):
        super().__init__(f"saturation did not close; first non-closing word: {word}")
        self.word = word
