"""Finite inverse systems of algebras with surjective connecting maps.

A Tower is a finite truncation A_1 <- A_2 <- ... <- A_N of an inverse
system; the constructors build the standard examples (truncated power
series, cyclic p-group algebras, truncated path algebras, finite products)
and the check functions verify the levelwise theorems exactly: connecting
maps send radicals onto radicals, semisimplicity is a levelwise property,
and path-algebra radicals are generated by the arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .algebra import (AlgHom, _trusted_algebra, direct_product,
                      group_algebra, hom_check, ideal_closure, quotient,
                      truncated_polynomial_algebra)
from .errors import (BadSpec, EmptyQuiver, IncompatibleCoordinates,
                     NonComposableRelation, NotAHom, TheoremViolation)
from .fields import Field, check_same_field, is_prime
from .linalg import Matrix, Subspace, rank, solve_many, unit_vec
from .radical import is_semisimple, radical


@dataclass
class Tower:
    """Levels A_1 .. A_N and surjective maps A_{i+1} -> A_i."""
    levels: list
    maps: list
    kind: str
    meta: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not self.levels:
            raise BadSpec("a tower needs at least one level")
        if len(self.maps) != len(self.levels) - 1:
            raise BadSpec("need exactly one connecting map per adjacent pair")
        for i, h in enumerate(self.maps):
            if h.source != self.levels[i + 1] or h.target != self.levels[i]:
                raise BadSpec(f"map {i} does not connect levels {i+2}->{i+1}")
            if rank(h.matrix) != h.target.dim:
                raise BadSpec(f"connecting map {i} is not surjective")

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass
class TowerElement:
    """A compatible coordinate sequence through the levels."""
    tower: Tower
    coords: list

    def add(self, other: "TowerElement") -> "TowerElement":
        T = self.tower
        return TowerElement(T, [lvl.add(a, b) for lvl, a, b in
                                zip(T.levels, self.coords, other.coords)])

    def mul(self, other: "TowerElement") -> "TowerElement":
        T = self.tower
        return TowerElement(T, [lvl.mul(a, b) for lvl, a, b in
                                zip(T.levels, self.coords, other.coords)])


def make_element(T: Tower, coords) -> TowerElement:
    """Validate a coordinate sequence; reports the first failing level."""
    coords = [tuple(c) for c in coords]
    if len(coords) != T.depth:
        raise IncompatibleCoordinates("need one coordinate vector per level")
    for i, h in enumerate(T.maps):
        if h.apply(coords[i + 1]) != coords[i]:
            raise IncompatibleCoordinates(
                f"coordinates disagree at level {i + 1}", i + 1)
    return TowerElement(T, coords)


def element_from_top(T: Tower, top) -> TowerElement:
    """Push a top-level vector down through the connecting maps."""
    coords = [tuple(top)]
    for h in reversed(T.maps):
        coords.append(h.apply(coords[-1]))
    coords.reverse()
    return TowerElement(T, coords)


def unit_element(T: Tower) -> TowerElement:
    return make_element(T, [lvl.unit for lvl in T.levels])


# -- constructors -------------------------------------------------------------

def power_series_tower(K: Field, depth: int) -> Tower:
    """Levels k[x]/(x^n), maps sending x to x."""
    if depth < 1:
        raise BadSpec("depth must be >= 1")
    levels = [truncated_polynomial_algebra(K, n) for n in range(1, depth + 1)]
    maps = []
    for n in range(1, depth):
        cols = [unit_vec(K, n, j) if j < n else (K.zero,) * n
                for j in range(n + 1)]
        maps.append(AlgHom(levels[n], levels[n - 1],
                           Matrix(K, zip(*cols), n + 1)))
    return Tower(levels, maps, "powerseries", {"depth": depth})


def cyclic_group_tower(p: int, K: Field, depth: int) -> Tower:
    """Levels k[C_{p^n}], maps induced by C_{p^{n+1}} -> C_{p^n} on the
    generator."""
    if depth < 1:
        raise BadSpec("depth must be >= 1")
    if not is_prime(p):
        raise BadSpec(f"{p} is not prime")
    levels = [group_algebra(p ** n, K) for n in range(1, depth + 1)]
    maps = []
    for n in range(1, depth):
        small = p ** n
        big = p ** (n + 1)
        cols = [unit_vec(K, small, j % small) for j in range(big)]
        maps.append(AlgHom(levels[n], levels[n - 1],
                           Matrix(K, zip(*cols), big)))
    return Tower(levels, maps, "cyclicgroup", {"p": p, "depth": depth})


def product_tower(factors, depth: int | None = None) -> Tower:
    """Level n is the product of the first n factors; maps drop the last
    coordinate block."""
    factors = list(factors)
    if not factors:
        raise BadSpec("need at least one factor")
    if depth is None:
        depth = len(factors)
    if not 1 <= depth <= len(factors):
        raise BadSpec("depth must be between 1 and the number of factors")
    K = factors[0].field
    for f in factors:
        check_same_field(K, f.field)
    levels = [direct_product(factors[:n]) for n in range(1, depth + 1)]
    maps = []
    for n in range(1, depth):
        small = levels[n - 1].dim
        big = levels[n].dim
        cols = [unit_vec(K, small, j) if j < small else (K.zero,) * small
                for j in range(big)]
        maps.append(AlgHom(levels[n], levels[n - 1],
                           Matrix(K, zip(*cols), big)))
    return Tower(levels, maps, "product", {"depth": depth})


# -- quivers ------------------------------------------------------------------

@dataclass
class QuiverSpec:
    """A finite quiver with optional homogeneous path relations.

    Arrows are (name, source, target) triples.  A relation is a list of
    (coefficient, path) terms; coefficients may be scalar text, ints, or
    scalars, and every path in one relation must be composable with one
    shared length >= 2."""
    vertices: list
    arrows: list
    relations: list = dataclass_field(default_factory=list)

    def __post_init__(self):
        self.vertices = list(self.vertices)
        self.arrows = [tuple(a) for a in self.arrows]
        self.relations = [[(c, tuple(path)) for c, path in rel]
                          for rel in self.relations]
        if not self.vertices:
            raise EmptyQuiver("quiver has no vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise BadSpec("duplicate vertex names")
        names = set()
        vset = set(self.vertices)
        for name, src, tgt in self.arrows:
            if name in names:
                raise BadSpec(f"duplicate arrow name {name!r}")
            names.add(name)
            if src not in vset or tgt not in vset:
                raise BadSpec(f"arrow {name!r} touches an unknown vertex")
        for rel in self.relations:
            if not rel:
                raise NonComposableRelation("empty relation")
            lengths = set()
            for _, path in rel:
                lengths.add(len(path))
                if len(path) < 2:
                    raise NonComposableRelation(
                        "relation paths must have length >= 2")
                self._check_path(path)
            if len(lengths) != 1:
                raise NonComposableRelation(
                    "relation terms must all have the same length")

    def arrow_by_name(self, name):
        for a in self.arrows:
            if a[0] == name:
                return a
        raise BadSpec(f"unknown arrow {name!r}")

    def _check_path(self, path):
        prev = None
        for name in path:
            _, src, tgt = self.arrow_by_name(name)
            if prev is not None and prev != src:
                raise NonComposableRelation(
                    f"path {'*'.join(path)} is not composable")
            prev = tgt


def loop_quiver() -> QuiverSpec:
    """One vertex, one loop: the power-series quiver."""
    return QuiverSpec(["v"], [("x", "v", "v")])


def kronecker_quiver() -> QuiverSpec:
    return QuiverSpec(["v1", "v2"], [("a", "v1", "v2"), ("b", "v1", "v2")])


def _paths_below(q: QuiverSpec, length_bound: int):
    """Paths of length < length_bound as (source, arrow names, target),
    ordered by length then lexicographically by arrow names."""
    paths = [(v, (), v) for v in q.vertices]
    frontier = paths
    for _ in range(length_bound - 1):
        nxt = []
        for src, names, tgt in frontier:
            for name, a_src, a_tgt in q.arrows:
                if a_src == tgt:
                    nxt.append((src, names + (name,), a_tgt))
        nxt.sort(key=lambda p: p[1])
        paths.extend(nxt)
        frontier = nxt
    return paths


def _coerce_scalar(K: Field, c):
    if isinstance(c, str):
        return K.parse(c)
    if isinstance(c, int):
        return K.from_int(c)
    return c


def _path_level(q: QuiverSpec, K: Field, n: int):
    """One truncated level kQ/(I + (arrows)^n).

    Returns (level, project, paths, index, free): ``project`` maps
    free-level vectors to level coordinates."""
    paths = _paths_below(q, n)
    index = {p: i for i, p in enumerate(paths)}
    labels = ["*".join(p[1]) if p[1] else p[0] for p in paths]
    entries = []
    for i, (s1, n1, t1) in enumerate(paths):
        for j, (s2, n2, t2) in enumerate(paths):
            if t1 == s2 and len(n1) + len(n2) < n:
                k = index[(s1, n1 + n2, t2)]
                entries.append((i, j, k, K.one))
    unit = [K.zero] * len(paths)
    for v in q.vertices:
        unit[index[(v, (), v)]] = K.one
    free = _trusted_algebra(K, labels, entries, unit)
    relvecs = []
    for rel in q.relations:
        if len(rel[0][1]) >= n:
            continue
        vec = [K.zero] * free.dim
        for coeff, path in rel:
            src = q.arrow_by_name(path[0])[1]
            tgt = q.arrow_by_name(path[-1])[2]
            pos = index[(src, tuple(path), tgt)]
            vec[pos] = K.add(vec[pos], _coerce_scalar(K, coeff))
        relvecs.append(tuple(vec))
    if relvecs:
        level, proj = quotient(free, ideal_closure(free, relvecs))
        project = proj.apply
    else:
        level = free
        project = lambda v: tuple(v)
    return level, project, paths, index, free


def path_algebra_tower(q: QuiverSpec, K: Field, depth: int) -> Tower:
    """Levels kQ/(I + (arrows)^n), maps truncating away the longest paths."""
    if depth < 1:
        raise BadSpec("depth must be >= 1")
    data = [_path_level(q, K, n) for n in range(1, depth + 1)]
    levels = [d[0] for d in data]
    maps = []
    for n in range(1, depth):
        level_hi, project_hi, paths_hi, _, free_hi = data[n]
        level_lo, project_lo, _, index_lo, free_lo = data[n - 1]
        cols = []
        for src, names, tgt in paths_hi:
            if len(names) < n:
                cols.append(unit_vec(K, free_lo.dim,
                                     index_lo[(src, names, tgt)]))
            else:
                cols.append((K.zero,) * free_lo.dim)
        trunc = Matrix(K, zip(*cols), free_hi.dim)
        # express the induced map on quotient coordinates by lifting
        if level_hi is free_hi:
            lifts = [free_hi.basis_element(i) for i in range(free_hi.dim)]
        else:
            pm = Matrix(K, zip(*[project_hi(free_hi.basis_element(i))
                                 for i in range(free_hi.dim)]), free_hi.dim)
            lifts = solve_many(pm, [level_hi.basis_element(i)
                                    for i in range(level_hi.dim)])
            if lifts is None:
                raise BadSpec("level projection is not surjective")
        cols = [project_lo(trunc.apply(x)) for x in lifts]
        maps.append(AlgHom(levels[n], levels[n - 1],
                           Matrix(K, zip(*cols), levels[n].dim)))
    rel_doc = [[[str(c) if isinstance(c, (str, int)) else K.text(c),
                 list(path)] for c, path in rel] for rel in q.relations]
    meta = {"depth": depth,
            "quiver": {"vertices": list(q.vertices),
                       "arrows": [list(a) for a in q.arrows],
                       "relations": rel_doc}}
    return Tower(levels, maps, "path", meta)


def quiver_of(T: Tower) -> QuiverSpec:
    if T.kind != "path" or "quiver" not in T.meta:
        raise BadSpec("tower carries no quiver description")
    qd = T.meta["quiver"]
    return QuiverSpec(qd["vertices"], [tuple(a) for a in qd["arrows"]],
                      [[(c, tuple(p)) for c, p in rel]
                       for rel in qd.get("relations", [])])


# -- levelwise theorem checks --------------------------------------------------

def tower_radical_check(T: Tower) -> dict:
    """Radicals per level, plus the exact check that every connecting map
    sends the radical onto the radical.  A failure is a TheoremViolation."""
    rads = [radical(lvl) for lvl in T.levels]
    for i, h in enumerate(T.maps):
        upper = rads[i + 1].radical.space
        image = Subspace(T.levels[i].field, T.levels[i].dim,
                         [h.apply(v) for v in upper.basis])
        if image != rads[i].radical.space:
            raise TheoremViolation(
                f"map {i + 2}->{i + 1} does not send radical onto radical",
                i + 1)
    return {
        "level_dims": [lvl.dim for lvl in T.levels],
        "radical_dims": [r.radical.dim for r in rads],
        "nilpotency_indices": [r.nilpotency_index for r in rads],
        "radical_onto_radical": True,
    }


def tower_semisimple_check(T: Tower) -> bool:
    """True iff every level is semisimple."""
    return all(is_semisimple(lvl) for lvl in T.levels)


def quiver_radical_check(T: Tower) -> bool:
    """For a path tower: the radical at each level is exactly the ideal
    generated by the images of the arrows."""
    q = quiver_of(T)
    K = T.levels[0].field
    for n, lvl in enumerate(T.levels, start=1):
        level, project, _, index, free = _path_level(q, K, n)
        if level != lvl:
            raise BadSpec(f"level {n} does not match its quiver data")
        arrow_vecs = []
        if n >= 2:
            for name, src, tgt in q.arrows:
                arrow_vecs.append(project(
                    unit_vec(K, free.dim, index[(src, (name,), tgt)])))
        closure = (ideal_closure(lvl, arrow_vecs).space if arrow_vecs
                   else Subspace.zero(lvl.field, lvl.dim))
        if closure != radical(lvl).radical.space:
            raise TheoremViolation(
                f"arrow ideal differs from the radical at level {n}", n)
    return True


def check_level_isomorphic(T1: Tower, T2: Tower) -> bool:
    """Whether the identity coordinate map is a level-by-level algebra
    isomorphism commuting with the connecting maps."""
    if T1.depth != T2.depth:
        return False
    isos = []
    for a, b in zip(T1.levels, T2.levels):
        if a.dim != b.dim or a.field != b.field:
            return False
        try:
            isos.append(hom_check(Matrix.identity(a.field, a.dim), b, a))
        except NotAHom:
            return False
    for i in range(T1.depth - 1):
        lhs = isos[i].matrix.mul(T2.maps[i].matrix)
        rhs = T1.maps[i].matrix.mul(isos[i + 1].matrix)
        if lhs != rhs:
            return False
    return True
