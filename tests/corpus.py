"""Seeded random algebra corpus shared by property and acceptance tests.

Every generated value is a valid FinAlg.  The library constructions used
(group algebras, truncated polynomial rings, triangular matrices, products,
tensor squares, quotients by random ideals) are valid by construction and
are not re-proved when built; test_trusted.py proves them.  The one table
written here, the trivial extension, goes through ``make_algebra``, which
proves it.
"""

import random

from pca import (FinAlg, direct_product, group_algebra, ideal_closure,
                 make_algebra, matrix_algebra, quotient, tensor,
                 triangular_algebra, truncated_polynomial_algebra)


def trivial_extension(B: FinAlg) -> FinAlg:
    """B (+) B with (a, m)(b, n) = (ab, an + mb); doubles the dimension and
    adds a square-zero ideal."""
    n = B.dim
    entries = list(B.entries())
    for i, j, k, c in B.entries():
        entries.append((i, n + j, n + k, c))
        entries.append((n + i, j, n + k, c))
    labels = list(B.labels) + [f"m:{lab}" for lab in B.labels]
    unit = tuple(B.unit) + tuple(B.zero_element())
    return make_algebra(B.field, labels, entries, unit)


def random_algebra(rng: random.Random, field, max_dim: int) -> FinAlg:
    """A random valid algebra of dimension <= max_dim over the field."""
    while True:
        kind = rng.choice(["group", "trunc", "tri", "matrix", "product",
                           "trivial", "tensor", "quotient", "quotient"])
        try:
            if kind == "group":
                A = group_algebra(rng.randint(1, max_dim), field)
            elif kind == "trunc":
                A = truncated_polynomial_algebra(field, rng.randint(1, max_dim))
            elif kind == "tri":
                A = triangular_algebra(2 if max_dim < 6 else rng.randint(2, 3),
                                       field)
            elif kind == "matrix":
                A = matrix_algebra(2, field)
            elif kind == "product":
                A = direct_product([
                    group_algebra(rng.randint(1, 3), field),
                    truncated_polynomial_algebra(field, rng.randint(1, 3))])
            elif kind == "trivial":
                A = trivial_extension(group_algebra(rng.randint(1, 3), field))
            elif kind == "tensor":
                A = tensor(truncated_polynomial_algebra(field, 2),
                           group_algebra(rng.randint(1, 3), field))
            else:
                B = random_algebra(rng, field, max_dim + 3)
                v = tuple(field.random(rng) for _ in range(B.dim))
                I = ideal_closure(B, [v])
                if I.dim in (0, B.dim):
                    continue
                A = quotient(B, I)[0]
        except Exception:
            continue
        if 1 <= A.dim <= max_dim:
            return A


def coordinate_ideals(A: FinAlg):
    """Twosided ideals found by closing each coordinate subspace."""
    seen = []
    for i in range(A.dim):
        I = ideal_closure(A, [A.basis_element(i)])
        if I.space not in [J.space for J in seen]:
            seen.append(I)
    return seen
