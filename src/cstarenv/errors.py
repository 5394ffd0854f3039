"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 1, structural or
verification failures exit 2, inconclusive numerical decisions exit 3.
"""


class InputError(ValueError):
    """Malformed input: bad shapes, non-unital generator lists, bad JSON."""


class DecompositionError(RuntimeError):
    """Block decomposition failed validation after all seed retries."""


class StructuralError(RuntimeError):
    """A structural precondition failed (e.g. boundary singletons whose union
    is not a boundary ideal)."""


class RouteDisagreementError(RuntimeError):
    """Two Šilov ideal routes disagree.

    The package no longer raises it: the lattice route picks the ideal and
    the representation route certifies that same ideal, so no two answers
    are compared.  The class stays for code outside the package that
    catches or raises it.
    """


class InconclusiveError(RuntimeError):
    """An iterative decision procedure hit its cap without a clear answer."""


class VerificationError(RuntimeError):
    """A theorem-level identity failed to hold on a concrete instance."""
