"""Proofs of the constructions that the library does not re-prove.

Constructors only store their fields, and the library runs ``verify()`` on
input from outside and on returned results.  The standard and derived
constructions are valid by construction; each case here builds some of them
and proves every object it returns.
"""

import pytest

from pca import malcev
from pca.algebra import (base_change, direct_product, group_algebra,
                         ideal_closure, kernel, matrix_algebra, opposite,
                         polynomial_quotient_algebra, quotient,
                         restrict_scalars, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.fields import PrimeField, Rationals, SimpleExtension
from pca.malcev import (_connecting_hom, malcev_conjugator,
                        wedderburn_splitting)
from pca.poly import Poly
from pca.radical import radical
from pca.separability import multiplication_kernel_bimodule
from pca.tower import (QuiverSpec, _path_level, cyclic_group_tower,
                       kronecker_quiver, path_algebra_tower,
                       power_series_tower, product_tower)
from pca.wedderburn import central_idempotents

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
QR2 = SimpleExtension(Q, Poly.from_ints(Q, [-2, 0, 1]).coeffs, "r")

# two loops x, y at one vertex with the relation xy = yx
COMMUTING_LOOPS = QuiverSpec(["v"], [("x", "v", "v"), ("y", "v", "v")],
                             [[("1", ("x", "y")), ("-1", ("y", "x"))]])


def _tower_parts(T):
    return T.levels + T.maps


def _quotients():
    out = []
    for A in (triangular_algebra(3, Q), group_algebra(4, F2)):
        for idl in radical(A).filtration:
            if idl.dim < A.dim:
                out.extend(quotient(A, idl))
    A = group_algebra(6, Q)
    g = A.basis_element(1)
    out.extend(quotient(A, ideal_closure(A, [A.sub(A.unit, g)])))
    return out


def _compositions_and_kernels():
    T = power_series_tower(Q, 4)
    top = T.maps[0].compose(T.maps[1]).compose(T.maps[2])
    A = triangular_algebra(3, F3)
    _, pi = quotient(A, radical(A).radical)
    return [T.maps[0].compose(T.maps[1]), top, kernel(top), kernel(pi),
            kernel(T.maps[2])]


def _ideal_closures():
    A = triangular_algebra(3, Q)
    B = group_algebra(4, F2)
    return [ideal_closure(A, [A.basis_element(1)], side)
            for side in ("left", "right", "twosided")] + \
        [ideal_closure(B, [B.add(B.unit, B.basis_element(1))]),
         ideal_closure(B, [])]


def _radical_powers():
    out = []
    for A in (group_algebra(8, F2), triangular_algebra(4, Q),
              truncated_polynomial_algebra(F3, 5),
              base_change(group_algebra(4, F2), SimpleExtension(
                  F2, Poly.from_ints(F2, [1, 1, 1]).coeffs))):
        out.extend(radical(A).filtration)
    return out


def _connecting_homs():
    out = []
    for A in (group_algebra(8, F2), triangular_algebra(3, Q)):
        quots = [quotient(A, idl) for idl in radical(A).filtration]
        for (coarse, coarse_proj), (fine, fine_proj) in zip(quots, quots[1:]):
            out.append(_connecting_hom(fine, fine_proj, coarse, coarse_proj))
    return out


def _path_levels():
    out = []
    for q in (kronecker_quiver(), COMMUTING_LOOPS):
        for n in (1, 2, 3):
            level, _, _, _, free = _path_level(q, Q, n)
            out.extend([level, free])
    return out


def _conjugator_bimodules():
    seen = []
    real = malcev.inner_derivation

    def spy(B, T, d):
        seen.append(T)
        return real(B, T, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(malcev, "inner_derivation", spy)
        for A in (triangular_algebra(3, Q), group_algebra(4, F2)):
            malcev_conjugator(wedderburn_splitting(A, seed=1),
                              wedderburn_splitting(A, seed=2))
    assert seen
    return seen


CASES = {
    "group_algebra": lambda: [group_algebra(n, K) for n, K in
                              ((1, Q), (6, Q), (4, F2), (9, F3))],
    "matrix_algebra": lambda: [matrix_algebra(2, Q), matrix_algebra(3, F2)],
    "triangular_algebra": lambda: [triangular_algebra(n, Q) for n in (1, 3)],
    "truncated_polynomial_algebra": lambda: [
        truncated_polynomial_algebra(F2, 4),
        truncated_polynomial_algebra(Q, 1)],
    "polynomial_quotient_algebra": lambda: [
        polynomial_quotient_algebra(Poly.from_ints(Q, [2, -3, 1])),
        polynomial_quotient_algebra(Poly.from_ints(F2, [1, 1, 0, 1])),
        polynomial_quotient_algebra(Poly.from_ints(Q, [0, 0, 0, 2]))],
    "direct_product": lambda: [direct_product(
        [group_algebra(2, Q), triangular_algebra(2, Q),
         matrix_algebra(2, Q)])],
    "opposite": lambda: [opposite(triangular_algebra(3, Q)),
                         opposite(tensor(triangular_algebra(2, F2),
                                         group_algebra(2, F2)))],
    "tensor": lambda: [tensor(truncated_polynomial_algebra(Q, 2),
                              group_algebra(3, Q)),
                       tensor(triangular_algebra(2, F3),
                              matrix_algebra(2, F3))],
    "base_change": lambda: [base_change(group_algebra(3, Q), QR2),
                            base_change(triangular_algebra(2, Q), QR2)],
    "restrict_scalars": lambda: [
        restrict_scalars(base_change(group_algebra(3, Q), QR2))[0],
        restrict_scalars(base_change(truncated_polynomial_algebra(Q, 2),
                                     QR2))[0]],
    "quotient": _quotients,
    "compose_and_kernel": _compositions_and_kernels,
    "ideal_closure": _ideal_closures,
    "radical_powers": _radical_powers,
    "connecting_hom": _connecting_homs,
    "power_series_tower": lambda: _tower_parts(power_series_tower(Q, 5)) +
    _tower_parts(power_series_tower(F2, 3)),
    "cyclic_group_tower": lambda: _tower_parts(cyclic_group_tower(2, F2, 3)) +
    _tower_parts(cyclic_group_tower(3, Q, 2)),
    "path_algebra_tower": lambda: _tower_parts(
        path_algebra_tower(kronecker_quiver(), Q, 3)) + _tower_parts(
        path_algebra_tower(COMMUTING_LOOPS, F3, 4)),
    "product_tower": lambda: _tower_parts(product_tower(
        [group_algebra(2, Q), matrix_algebra(2, Q),
         truncated_polynomial_algebra(Q, 3)])),
    "path_level": _path_levels,
    "block_algebras": lambda: [
        b for A in (group_algebra(6, Q), group_algebra(5, F2),
                    direct_product([matrix_algebra(2, F3),
                                    group_algebra(2, F3)]))
        for b in central_idempotents(A).blocks],
    "multiplication_kernel_bimodule": lambda: [
        multiplication_kernel_bimodule(A)[0]
        for A in (group_algebra(3, Q), matrix_algebra(2, F3),
                  triangular_algebra(2, Q))],
    "conjugator_bimodule": _conjugator_bimodules,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trusted_construction_is_valid(name):
    built = CASES[name]()
    assert built
    for obj in built:
        assert obj.verify() is True, obj
