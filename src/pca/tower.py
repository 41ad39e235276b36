"""Finite inverse systems of algebras with surjective connecting maps.

A Tower is a finite truncation A_1 <- A_2 <- ... <- A_N of an inverse
system; the constructors build the standard examples (truncated power
series, cyclic p-group algebras, truncated path algebras, finite products)
and the check functions verify the levelwise theorems exactly: connecting
maps send radicals onto radicals, semisimplicity is a levelwise property,
and path-algebra radicals are generated by the arrows.  ``Tower.verify``
checks the shape and that every connecting map is onto; it runs on tower
files and on the towers ``pca tower build`` writes.

The level radicals are computed once, by ``tower_radicals``, as the
paper's radical of the inverse limit suggests: the first level cold, each
later one from the level below as the preimage of its radical
(``radical.radical_from_below``), which falls back to the cold route when
that preimage is not nilpotent.  Both checks take this list; the
radical-onto-radical check still compares the image of each radical with
the radical below.  Each constructor bounds the tower's depth and the
dimension of its top level (``limits.Limits``) before it builds a level.
"""

from __future__ import annotations

from .algebra import (AlgHom, _trusted_algebra, direct_product,
                      group_algebra, ideal_closure, is_surjective, quotient,
                      truncated_polynomial_algebra)
from .errors import (BadSpec, EmptyQuiver, IncompatibleCoordinates,
                     NonComposableRelation, NotAHom, TheoremViolation)
from .fields import Field, check_same_field, is_prime
from .limits import check_depth, check_dim
from .linalg import (Subspace, first_difference, identity_map, map_of,
                     unit_vec)
from .radical import is_semisimple, radical, radical_from_below


class Tower:
    """Levels A_1 .. A_N and surjective maps A_{i+1} -> A_i."""

    def __init__(self, levels: list, maps: list, kind: str,
                 meta: dict | None = None):
        self.levels = levels
        self.maps = maps
        self.kind = kind
        self.meta = {} if meta is None else meta

    def verify(self):
        """At least one level, and one surjective map per adjacent pair,
        connecting them."""
        if not self.levels:
            raise BadSpec("a tower needs at least one level")
        if len(self.maps) != len(self.levels) - 1:
            raise BadSpec("need exactly one connecting map per adjacent pair")
        for i, h in enumerate(self.maps):
            if h.source != self.levels[i + 1] or h.target != self.levels[i]:
                raise BadSpec(f"map {i} does not connect levels {i+2}->{i+1}")
            if not is_surjective(h):
                raise BadSpec(f"connecting map {i} is not surjective")
        return True

    @property
    def depth(self) -> int:
        return len(self.levels)


class TowerElement:
    """A compatible coordinate sequence through the levels."""

    def __init__(self, tower: Tower, coords: list):
        self.tower = tower
        self.coords = coords

    def add(self, other: "TowerElement") -> "TowerElement":
        T = self.tower
        return TowerElement(T, [lvl.add(a, b) for lvl, a, b in
                                zip(T.levels, self.coords, other.coords)])

    def mul(self, other: "TowerElement") -> "TowerElement":
        T = self.tower
        return TowerElement(T, [lvl.mul(a, b) for lvl, a, b in
                                zip(T.levels, self.coords, other.coords)])


def make_element(T: Tower, coords) -> TowerElement:
    """Validate a coordinate sequence; reports the first failing level.
    A vector of the wrong length for its level is AmbientMismatch."""
    coords = [tuple(c) for c in coords]
    if len(coords) != T.depth:
        raise IncompatibleCoordinates("need one coordinate vector per level")
    for lvl, c in zip(T.levels, coords):
        lvl._check(c)
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
    check_depth(depth)
    check_dim(depth, "the top level")
    levels = [truncated_polynomial_algebra(K, n) for n in range(1, depth + 1)]
    maps = [AlgHom(levels[n], levels[n - 1], identity_map(K, n))
            for n in range(1, depth)]
    return Tower(levels, maps, "powerseries", {"depth": depth})


def cyclic_group_tower(p: int, K: Field, depth: int) -> Tower:
    """Levels k[C_{p^n}], maps induced by C_{p^{n+1}} -> C_{p^n} on the
    generator."""
    if depth < 1:
        raise BadSpec("depth must be >= 1")
    if not is_prime(p):
        raise BadSpec(f"{p} is not prime")
    check_depth(depth)
    check_dim(p ** depth, "the top level")
    levels = [group_algebra(p ** n, K) for n in range(1, depth + 1)]
    maps = [AlgHom(levels[n], levels[n - 1],
                   {j: ((j % p ** n, K.one),) for j in range(p ** (n + 1))})
            for n in range(1, depth)]
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
    check_depth(depth)
    check_dim(sum(f.dim for f in factors[:depth]), "the top level")
    levels = [direct_product(factors[:n]) for n in range(1, depth + 1)]
    maps = [AlgHom(big, small, identity_map(K, small.dim))
            for small, big in zip(levels, levels[1:])]
    return Tower(levels, maps, "product", {"depth": depth})


# -- quivers ------------------------------------------------------------------

class QuiverSpec:
    """A finite quiver with optional homogeneous path relations.

    Arrows are (name, source, target) triples.  A relation is a list of
    (coefficient, path) terms; coefficients may be scalar text, ints, or
    scalars, and every path in one relation must be composable with one
    shared length >= 2."""

    def __init__(self, vertices, arrows, relations=()):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.relations = [[(c, tuple(path)) for c, path in rel]
                          for rel in relations]
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


def _path_count(q: QuiverSpec, length_bound: int) -> int:
    """The number of paths of length < length_bound, counted by target
    vertex without listing them."""
    ending = dict.fromkeys(q.vertices, 1)
    total = len(q.vertices)
    for _ in range(length_bound - 1):
        nxt = dict.fromkeys(q.vertices, 0)
        for _, src, tgt in q.arrows:
            nxt[tgt] += ending[src]
        ending = nxt
        total += sum(ending.values())
    return total


def _coerce_scalar(K: Field, c):
    if isinstance(c, str):
        return K.parse(c)
    if isinstance(c, int):
        return K.from_int(c)
    return c


def _path_level(q: QuiverSpec, K: Field, n: int):
    """One truncated level kQ/(I + (arrows)^n).

    Returns (level, project, paths, index, relations): ``project`` maps
    free-level vectors, on the basis ``paths``, to level coordinates, and
    ``relations`` is the relation ideal of the free level, or None."""
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
    if not relvecs:
        return free, tuple, paths, index, None
    relations = ideal_closure(free, relvecs)
    level, proj = quotient(free, relations)
    return level, proj.apply, paths, index, relations


def path_algebra_tower(q: QuiverSpec, K: Field, depth: int) -> Tower:
    """Levels kQ/(I + (arrows)^n), maps truncating away the longest paths."""
    if depth < 1:
        raise BadSpec("depth must be >= 1")
    check_depth(depth)
    check_dim(_path_count(q, depth), "the top free level")
    data = [_path_level(q, K, n) for n in range(1, depth + 1)]
    levels = [d[0] for d in data]
    maps = []
    for n in range(1, depth):
        _, _, paths_hi, _, relations = data[n]
        _, project_lo, _, index_lo, _ = data[n - 1]
        pivots = relations.space.pivots if relations else ()
        # basis element i of level n+1 lifts to the path at the i-th
        # non-pivot column of its relations; truncation drops length n
        cols = []
        for c, (src, names, tgt) in enumerate(paths_hi):
            if c in pivots:
                continue
            path = [K.zero] * len(index_lo)
            if len(names) < n:
                path[index_lo[(src, names, tgt)]] = K.one
            cols.append(project_lo(tuple(path)))
        maps.append(AlgHom(levels[n], levels[n - 1], map_of(K, cols)))
    rel_doc = [[[str(c) if isinstance(c, (str, int)) else K.text(c),
                 list(path)] for c, path in rel] for rel in q.relations]
    meta = {"depth": depth,
            "quiver": {"vertices": list(q.vertices),
                       "arrows": [list(a) for a in q.arrows],
                       "relations": rel_doc}}
    return Tower(levels, maps, "path", meta)


def _checked_quiver(vertices, arrows, relations) -> QuiverSpec:
    """The QuiverSpec of quiver data from a file, as its format says:
    vertices and paths are lists, names, path entries and coefficients
    are strings.  Anything else is BadSpec, or a TypeError or ValueError
    for the caller to report."""
    paths = [p for rel in relations for _, p in rel]
    texts = [x for xs in [vertices, *arrows, *paths] for x in xs]
    texts += [c for rel in relations for c, _ in rel]
    if not (all(isinstance(x, list) for x in [vertices, *paths])
            and all(isinstance(x, str) for x in texts)):
        raise BadSpec("quiver vertices and paths must be lists, and names,"
                      " path entries and coefficients strings")
    return QuiverSpec(vertices, arrows, relations)


def quiver_of(T: Tower) -> QuiverSpec:
    if T.kind != "path" or "quiver" not in T.meta:
        raise BadSpec("tower carries no quiver description")
    try:
        qd = T.meta["quiver"]
        return _checked_quiver(qd["vertices"], qd["arrows"],
                               qd.get("relations", []))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadSpec(f"malformed quiver in tower metadata: {exc}") from exc


# -- levelwise theorem checks --------------------------------------------------

def tower_radicals(T: Tower) -> list:
    """The radical of every level: the first cold, each later one from the
    level below through ``radical_from_below``."""
    rads = [radical(T.levels[0])]
    for h in T.maps:
        rads.append(radical_from_below(h, rads[-1]))
    return rads


def tower_radical_check(T: Tower, rads=None) -> dict:
    """Radicals per level, plus the exact check that every connecting map
    sends the radical onto the radical.  A failure is a TheoremViolation.
    ``rads`` are the level radicals when the caller already holds them."""
    if rads is None:
        rads = tower_radicals(T)
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


def quiver_radical_check(T: Tower, rads=None) -> bool:
    """For a path tower: the radical at each level is exactly the ideal
    generated by the images of the arrows.  ``rads`` are the level
    radicals when the caller already holds them."""
    q = quiver_of(T)
    if rads is None:
        rads = tower_radicals(T)
    K = T.levels[0].field
    for n, lvl in enumerate(T.levels, start=1):
        level, project, _, index, _ = _path_level(q, K, n)
        if level != lvl:
            raise BadSpec(f"level {n} does not match its quiver data")
        arrow_vecs = []
        if n >= 2:
            for name, src, tgt in q.arrows:
                arrow_vecs.append(project(
                    unit_vec(K, len(index), index[(src, (name,), tgt)])))
        closure = ideal_closure(lvl, arrow_vecs).space
        if closure != rads[n - 1].radical.space:
            raise TheoremViolation(
                f"arrow ideal differs from the radical at level {n}", n)
    return True


def check_level_isomorphic(T1: Tower, T2: Tower) -> bool:
    """Whether the identity coordinate map is a level-by-level algebra
    isomorphism commuting with the connecting maps; the isomorphisms being
    identities, the maps commute when they agree."""
    if T1.depth != T2.depth:
        return False
    for a, b in zip(T1.levels, T2.levels):
        if a.dim != b.dim or a.field != b.field:
            return False
        try:
            AlgHom(b, a, identity_map(a.field, a.dim)).verify()
        except NotAHom:
            return False
    return all(first_difference(h1.source.field, h1.map, h2.map) is None
               for h1, h2 in zip(T1.maps, T2.maps))
