"""Idempotent lifting, Wedderburn-Malcev splittings and their conjugacy.

The splitting A = S + J(A) is built by walking the radical filtration
J, J^2, ..., 0 and lifting a multiplicative section through each
square-zero layer: pick a linear lift, measure its multiplication defect,
and absorb the defect with one linear (coboundary) solve, which is possible
exactly because A/J is separable.  Every lifted section is re-checked for
exact multiplicativity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import AlgHom, FinAlg, Ideal, quotient
from .errors import (BadSpec, CoboundaryUnsolvable,
                     InternalVerificationFailed, NotIdempotentModJ, NotInner,
                     NotSeparableQuotient, AmbientMismatch)
from .linalg import Matrix, Subspace, nullspace, solve, solve_many
from .radical import RadicalResult, radical
from .separability import Bimodule, inner_derivation, is_separable


@dataclass
class Splitting:
    """An algebra section of the projection A -> A/J(A) with image S."""
    algebra: FinAlg
    quotient: FinAlg
    projection: AlgHom
    section: AlgHom
    image: Subspace
    radical: RadicalResult

    def verify(self):
        A = self.algebra
        K = A.field
        comp = self.projection.matrix.mul(self.section.matrix)
        if comp != Matrix.identity(K, self.quotient.dim):
            raise InternalVerificationFailed("projection o section != id")
        self.section.verify()
        J = self.radical.radical.space
        if self.image.intersect(J).dim != 0:
            raise InternalVerificationFailed("S meets J")
        if self.image.sum(J).dim != A.dim:
            raise InternalVerificationFailed("S + J != A")
        return True


def lift_idempotent(A: FinAlg, f, rad: RadicalResult | None = None):
    """Lift an idempotent-mod-J vector to an exact idempotent congruent to
    it, by iterating e <- 3e^2 - 2e^3 (valid in every characteristic)."""
    if rad is None:
        rad = radical(A)
    J = rad.radical.space
    f = tuple(f)
    defect = A.sub(A.mul(f, f), f)
    if not J.contains(defect):
        raise NotIdempotentModJ("f^2 - f is not in the radical")
    three = A.field.from_int(3)
    minus_two = A.field.from_int(-2)
    m = max(rad.nilpotency_index, 1)
    bound = m.bit_length() + 2
    e = f
    for _ in range(bound):
        sq = A.mul(e, e)
        if sq == e:
            break
        cube = A.mul(sq, e)
        e = A.add(A.scale(three, sq), A.scale(minus_two, cube))
    if A.mul(e, e) != e:
        raise InternalVerificationFailed("idempotent iteration did not settle")
    if not J.contains(A.sub(e, f)):
        raise InternalVerificationFailed("lifted idempotent moved mod J")
    return e


def _connecting_hom(fine, fine_proj, coarse, coarse_proj) -> AlgHom:
    """The induced surjection A/I' -> A/I for I' contained in I, computed by
    lifting basis vectors through the finer projection."""
    A = fine_proj.source
    lifts = solve_many(fine_proj.matrix,
                       [fine.basis_element(i) for i in range(fine.dim)])
    if lifts is None:
        raise InternalVerificationFailed("projection is not surjective")
    cols = [coarse_proj.apply(x) for x in lifts]
    return AlgHom(fine, coarse, Matrix(A.field, zip(*cols), fine.dim))


def wedderburn_splitting(A: FinAlg, seed: int = 0) -> Splitting:
    """A validated Wedderburn-Malcev splitting of A.

    The seed perturbs the linear lift chosen at each filtration layer, so
    different seeds generally produce different (conjugate) splittings."""
    rad = radical(A)
    K = A.field
    quots = [quotient(A, idl) for idl in rad.filtration]
    head, head_proj = quots[0]
    if not is_separable(head):
        raise NotSeparableQuotient("A/J is not separable")
    rng = random.Random(seed)
    q = head.dim
    section = Matrix.identity(K, q)
    for level in range(1, len(quots)):
        fine, fine_proj = quots[level]
        coarse, coarse_proj = quots[level - 1]
        rho = _connecting_hom(fine, fine_proj, coarse, coarse_proj)
        nspace = Subspace(K, fine.dim, nullspace(rho.matrix).data)
        # linear lift of the current section through rho
        taus = solve_many(rho.matrix,
                          [section.column(s) for s in range(q)])
        if taus is None:
            raise InternalVerificationFailed("connecting map not surjective")
        taus = [list(t) for t in taus]
        if nspace.dim:
            for s in range(q):
                perturb = nspace.from_coords(tuple(
                    K.from_int(rng.randint(-2, 2))
                    for _ in range(nspace.dim)))
                taus[s] = [K.add(a, b) for a, b in zip(taus[s], perturb)]
        # restore tau(1) = 1; the functional x -> x[idx]/w[idx] is 1 on 1
        w = head.unit
        idx = next(i for i, c in enumerate(w) if not K.is_zero(c))
        tau_one = [K.zero] * fine.dim
        for s in range(q):
            ws = w[s]
            if not K.is_zero(ws):
                tau_one = [K.add(a, K.mul(ws, b))
                           for a, b in zip(tau_one, taus[s])]
        drift = [K.sub(a, b) for a, b in zip(tau_one, fine.unit)]
        # only the idx column moves: ell(e_s) = delta(s, idx) / w[idx]
        winv = K.inv(w[idx])
        taus[idx] = [K.sub(a, K.mul(winv, b))
                     for a, b in zip(taus[idx], drift)]
        tau = Matrix(K, zip(*taus), q)

        def mul_cols(M, i, j, alg=fine):
            return alg.mul(M.column(i), M.column(j))

        # defect and the coboundary system
        nu = nspace.dim
        lam = []
        rho_act = []
        for s in range(q):
            ts = tau.column(s)
            lcols = []
            rcols = []
            for v in nspace.basis:
                cv = nspace.coords(fine.mul(ts, v))
                dv = nspace.coords(fine.mul(v, ts))
                if cv is None or dv is None:
                    raise InternalVerificationFailed(
                        "kernel layer is not stable under the lift")
                lcols.append(cv)
                rcols.append(dv)
            lam.append(Matrix(K, zip(*lcols), nu))
            rho_act.append(Matrix(K, zip(*rcols), nu))
        rows = []
        rhs = []
        for i in range(q):
            for j in range(q):
                prod = head.product_basis(i, j)
                c = fine.sub(tau.apply(prod), mul_cols(tau, i, j))
                cc = nspace.coords(c)
                if cc is None:
                    raise InternalVerificationFailed(
                        "multiplication defect escapes the kernel layer")
                for r in range(nu):
                    row = [K.zero] * (nu * q)
                    for s in range(q):
                        if not K.is_zero(prod[s]):
                            row[r * q + s] = K.add(row[r * q + s], prod[s])
                    for m2 in range(nu):
                        row[m2 * q + j] = K.sub(row[m2 * q + j],
                                                lam[i].data[r][m2])
                        row[m2 * q + i] = K.sub(row[m2 * q + i],
                                                rho_act[j].data[r][m2])
                    rows.append(row)
                    rhs.append(cc[r])
        if nu and rows:
            sol = solve(Matrix(K, rows, nu * q), tuple(rhs))
            if sol is None:
                raise CoboundaryUnsolvable(
                    "defect system inconsistent despite separable quotient")
            hcols = [nspace.from_coords(tuple(sol[r * q + s]
                                              for r in range(nu)))
                     for s in range(q)]
        else:
            hcols = [(K.zero,) * fine.dim for _ in range(q)]
        accepted = None
        for sign in (-1, 1):
            cand_cols = []
            for s in range(q):
                col = [K.add(a, K.mul(K.from_int(sign), b))
                       for a, b in zip(tau.column(s), hcols[s])]
                cand_cols.append(col)
            cand = Matrix(K, zip(*cand_cols), q)
            ok = all(cand.apply(head.product_basis(i, j)) ==
                     mul_cols(cand, i, j)
                     for i in range(q) for j in range(q))
            if ok:
                accepted = cand
                break
        if accepted is None:
            raise InternalVerificationFailed(
                "corrected lift is not multiplicative")
        section = accepted
    # the last quotient is by the zero ideal, i.e. A itself coordinatewise
    sec_hom = AlgHom(head, A, section)
    image = Subspace(K, A.dim, section.columns())
    split = Splitting(A, head, head_proj, sec_hom, image, rad)
    split.verify()
    return split


def splitting_from_section_matrix(A: FinAlg, matrix: Matrix,
                                  rad: RadicalResult | None = None) -> Splitting:
    """Rebuild and fully validate a Splitting from a stored section matrix;
    one that is not a section of A -> A/J is bad input (NotAHom, BadSpec)."""
    if rad is None:
        rad = radical(A)
    head, head_proj = quotient(A, rad.radical)
    sec = AlgHom(head, A, matrix)
    split = Splitting(A, head, head_proj, sec,
                      Subspace(A.field, A.dim, matrix.columns()), rad)
    try:
        split.verify()
    except InternalVerificationFailed as exc:
        raise BadSpec(f"not a splitting of this algebra: {exc}") from exc
    return split


def splitting_from_complement(A: FinAlg, space: Subspace,
                              rad: RadicalResult | None = None) -> Splitting:
    """The splitting whose image is a given complement subalgebra of J."""
    if rad is None:
        rad = radical(A)
    head, head_proj = quotient(A, rad.radical)
    K = A.field
    cols = [head_proj.apply(v) for v in space.basis]
    M = Matrix(K, zip(*cols), space.dim)
    coords = solve_many(M, [head.basis_element(i) for i in range(head.dim)])
    if coords is None:
        raise InternalVerificationFailed(
            "subspace is not a complement of the radical")
    section_cols = [space.from_coords(c) for c in coords]
    return splitting_from_section_matrix(
        A, Matrix(K, zip(*section_cols), head.dim), rad)


def check_ideal_lemma(s: Splitting, ideal: Ideal) -> bool:
    """Whether the section maps (I + J)/J into I; true for every twosided
    ideal by the idempotent-power argument."""
    if ideal.ambient != s.algebra:
        raise AmbientMismatch("ideal of a different algebra")
    J = s.radical.radical.space
    total = ideal.space.sum(J)
    down = Subspace(s.algebra.field, s.quotient.dim,
                    [s.projection.apply(v) for v in total.basis])
    return all(ideal.contains(s.section.apply(w)) for w in down.basis)


def _geometric_inverse(A: FinAlg, omega, index: int):
    """(1 - w)^(-1) as 1 + w + w^2 + ... for nilpotent w."""
    acc = A.unit
    term = A.unit
    for _ in range(max(index, 1)):
        term = A.mul(term, omega)
        acc = A.add(acc, term)
    return acc


def malcev_conjugator(s1: Splitting, s2: Splitting):
    """An element w of J with S1 = (1 - w) S2 (1 - w)^(-1), found by making
    the difference of the two sections inner over the J bimodule with
    x.j = s1(x) j and j.x = j s2(x)."""
    A = s1.algebra
    if s2.algebra != A:
        raise AmbientMismatch("splittings of different algebras")
    K = A.field
    J = s1.radical.radical.space
    if J != s2.radical.radical.space:
        raise InternalVerificationFailed("radical mismatch between splittings")
    head = s1.quotient
    if s2.quotient != head:
        raise InternalVerificationFailed("quotient mismatch between splittings")
    if J.is_zero():
        return A.zero_element()
    lam = []
    rho = []
    dcols = []
    for i in range(head.dim):
        a1 = s1.section.apply(head.basis_element(i))
        a2 = s2.section.apply(head.basis_element(i))
        lcols = []
        rcols = []
        for v in J.basis:
            cv = J.coords(A.mul(a1, v))
            dv = J.coords(A.mul(v, a2))
            if cv is None or dv is None:
                raise InternalVerificationFailed("J is not action-stable")
            lcols.append(cv)
            rcols.append(dv)
        lam.append(Matrix(K, zip(*lcols), J.dim))
        rho.append(Matrix(K, zip(*rcols), J.dim))
        diff = J.coords(A.sub(a1, a2))
        if diff is None:
            raise InternalVerificationFailed(
                "section difference escapes the radical")
        dcols.append(diff)
    T = Bimodule(head, lam, rho)
    u = inner_derivation(head, T, Matrix(K, zip(*dcols), head.dim))
    if u is None:
        raise NotInner("section difference not inner: separability violated")

    def conjugates(omega):
        one_minus = A.sub(A.unit, omega)
        inv = _geometric_inverse(A, omega, s1.radical.nilpotency_index)
        if A.mul(one_minus, inv) != A.unit or A.mul(inv, one_minus) != A.unit:
            return None
        for i in range(head.dim):
            lhs = A.mul(one_minus,
                        A.mul(s2.section.apply(head.basis_element(i)), inv))
            if lhs != s1.section.apply(head.basis_element(i)):
                return None
        return omega

    omega = J.from_coords(u)
    for cand in (omega, A.scale(K.from_int(-1), omega)):
        if conjugates(cand) is not None:
            return cand
    raise InternalVerificationFailed("conjugator candidates both fail")
