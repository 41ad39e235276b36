"""Input budgets, checked before any work starts.

Every size bound on what the program accepts lives in ``Limits``, so an
oversized request ends in ``TooLarge`` (exit 1 with ``pca: error:``)
instead of running out of memory or time.  A tower's cost grows with both
its top level and its number of levels: a Kronecker path tower keeps
dimension 4 at every level, so its depth needs a bound of its own.  An
F_p(t) scalar is stored densely, and one operation on it costs time
quadratic in its degree (the gcd that keeps it reduced), so the exponents
of t in scalar text are bounded too.
"""

from __future__ import annotations

from .errors import TooLarge


class Limits:
    """``dim``: the largest dimension of an algebra read from a file and of
    the top level of a tower, checked before any level is built.
    ``depth``: the largest number of levels of a built or loaded tower.
    ``degree``: the largest exponent of t in F_p(t) scalar text, checked
    before the polynomial is allocated."""
    dim = 256
    depth = 64
    degree = 256


def check_dim(dim: int, what: str) -> None:
    if dim > Limits.dim:
        raise TooLarge(f"{what} has dimension {dim}, above the limit "
                       f"of {Limits.dim}")


def check_depth(depth: int) -> None:
    if depth > Limits.depth:
        raise TooLarge(f"tower depth {depth} is above the limit "
                       f"of {Limits.depth}")


def check_degree(degree: int) -> None:
    if degree > Limits.degree:
        raise TooLarge(f"t^{degree} is above the limit of degree "
                       f"{Limits.degree}")
