"""Deterministic constructors for the groupoid families used everywhere.

Pair groupoids, one-object group groupoids, transformation (action)
groupoids, and the groupoids of finite acyclic graphs (the disjoint union
over the sinks of the pair groupoids on the boundary paths ending there, so
the algebra is a direct sum of matrix algebras).  Also the seeded random
generators for sheaves and modules; all randomness flows through explicit
seeds, never global state.

All ids are strings so the same objects round-trip through the JSON
document format unchanged.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .equivalence import gamma_c
from .gmodule import GModule
from .groupoid import ArrowId, FiniteGroupoid, ObjectId
from .gsheaf import GSheaf
from .rings import Matrix, Ring, matrix_inverse


def _pair_union(blocks: Sequence[Sequence[str]]) -> FiniteGroupoid:
    """The disjoint union of the pair groupoids on each block of labels.

    Within a block there is one arrow (p,q) from q to p for every p and q,
    and (p,q)(q,r) = (p,r).  Objects, arrows and every table follow the
    blocks in order, each block in (p, q, r) order; each arrow name is
    formatted once."""
    arrows: list[str] = []
    src, dst, unit, compose, inverse = {}, {}, {}, {}, {}
    for block in blocks:
        names = [[f"({p},{q})" for q in block] for p in block]
        for i, p in enumerate(block):
            row = names[i]
            unit[p] = row[i]
            for j, q in enumerate(block):
                a = row[j]
                arrows.append(a)
                src[a], dst[a], inverse[a] = q, p, names[j][i]
                compose.update(((a, b), c) for b, c in zip(names[j], row))
    objects = tuple(p for block in blocks for p in block)
    return FiniteGroupoid(objects, tuple(arrows), src, dst, unit, compose, inverse)


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Objects 1..n, one arrow (i,j) from j to i, (i,j)(j,k) = (i,k)."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one object")
    return _pair_union([tuple(str(i) for i in range(1, n + 1))])


def trivial_groupoid() -> FiniteGroupoid:
    return pair_groupoid(1)


# -- groups and actions -------------------------------------------------------


def cyclic_group(n: int) -> tuple[tuple[str, ...], dict[tuple[str, str], str]]:
    """Element names and multiplication table of Z/n (identity "e")."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    names = tuple("e" if k == 0 else ("g" if k == 1 else f"g{k}") for k in range(n))
    table = {
        (names[a], names[b]): names[(a + b) % n] for a in range(n) for b in range(n)
    }
    return names, table


def _check_group(
    elements: Sequence[str], table: Mapping[tuple[str, str], str]
) -> tuple[str, dict[str, str]]:
    """The identity and the inverse of each element of a group table;
    raises ValueError "not a group table: ..." naming the first law broken."""
    elems = set(elements)
    if len(elems) != len(elements):
        raise ValueError("not a group table: duplicate element names")
    for a in elements:
        for b in elements:
            if table.get((a, b)) not in elems:
                raise ValueError(f"not a group table: product ({a},{b}) missing or unknown")
    identity = next(
        (e for e in elements if all(table[(e, a)] == a and table[(a, e)] == a for a in elements)),
        None,
    )
    if identity is None:
        raise ValueError("not a group table: no identity element")
    inverse = {}
    for a in elements:
        b = next((b for b in elements if table[(a, b)] == identity == table[(b, a)]), None)
        if b is None:
            raise ValueError(f"not a group table: element {a} has no inverse")
        inverse[a] = b
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise ValueError(f"not a group table: associativity fails at ({a},{b},{c})")
    return identity, inverse


def group_groupoid(
    elements: Sequence[str], table: Mapping[tuple[str, str], str]
) -> FiniteGroupoid:
    """A group as a one-object groupoid; its algebra is the group algebra."""
    identity, inverse = _check_group(elements, table)
    obj = "*"
    return FiniteGroupoid(
        objects=(obj,),
        arrows=tuple(elements),
        src={a: obj for a in elements},
        dst={a: obj for a in elements},
        unit={obj: identity},
        compose=dict(table),
        inverse=inverse,
    )


def action_groupoid(
    elements: Sequence[str],
    table: Mapping[tuple[str, str], str],
    points: Sequence[str],
    action: Mapping[tuple[str, str], str],
) -> FiniteGroupoid:
    """The transformation groupoid of a group action: one arrow (g,x) from x
    to g.x, composing by (g, h.x)(h, x) = (gh, x)."""
    identity, group_inverse = _check_group(elements, table)
    point_set = set(points)
    if len(point_set) != len(points):
        raise ValueError("duplicate points")
    for g in elements:
        for x in points:
            if action.get((g, x)) not in point_set:
                raise ValueError(f"not an action: ({g},{x}) missing or unknown")
    for x in points:
        if action[(identity, x)] != x:
            raise ValueError(f"not an action: identity moves {x}")
    name = {(g, x): f"({g},{x})" for g in elements for x in points}
    compose = {}
    for g in elements:
        for h in elements:
            gh = table[(g, h)]
            for x in points:
                hx = action[(h, x)]
                if action[(g, hx)] != action[(gh, x)]:
                    raise ValueError(f"not an action: compatibility fails at ({g},{h},{x})")
                compose[(name[g, hx], name[h, x])] = name[gh, x]
    return FiniteGroupoid(
        objects=tuple(points),
        arrows=tuple(name.values()),
        src={a: x for (g, x), a in name.items()},
        dst={a: action[gx] for gx, a in name.items()},
        unit={x: name[identity, x] for x in points},
        compose=compose,
        inverse={a: name[group_inverse[g], action[(g, x)]] for (g, x), a in name.items()},
    )


# -- acyclic graph groupoids ---------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        known = set(self.vertices)
        for i, (a, b) in enumerate(self.edges):
            if a not in known or b not in known:
                raise ValueError(f"edge {i} references unknown vertex")


def _find_cycle(spec: GraphSpec) -> list[str] | None:
    outgoing: dict[str, list[str]] = {v: [] for v in spec.vertices}
    for a, b in spec.edges:
        outgoing[a].append(b)
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for start in spec.vertices:
        if start in state:
            continue
        stack = [(start, iter(outgoing[start]))]
        state[start] = 0
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 0:
                    return path + [nxt]
                if nxt not in state:
                    state[nxt] = 0
                    path.append(nxt)
                    stack.append((nxt, iter(outgoing[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
                path.pop()
    return None


def _boundary_paths(spec: GraphSpec) -> list[tuple[str, ...]]:
    """Per sink, in vertex order, the labels of all edge paths ending there,
    ordered by (length, edge indices).  The empty path is labelled by the
    sink; a path u -e_i-> v -e_j-> w by "u-ei-v-ej-w"."""
    incoming: dict[str, list[int]] = {v: [] for v in spec.vertices}
    for i, (_, b) in enumerate(spec.edges):
        incoming[b].append(i)
    has_out = {a for a, _ in spec.edges}

    def paths_into(v: str) -> list[tuple[tuple[int, ...], str]]:
        found: list[tuple[tuple[int, ...], str]] = [((), v)]
        for i in incoming[v]:
            for tail, label in paths_into(spec.edges[i][0]):
                found.append((tail + (i,), f"{label}-e{i}-{v}"))
        return found

    return [
        tuple(label for _, label in sorted(paths_into(s), key=lambda p: (len(p[0]), p[0])))
        for s in spec.vertices
        if s not in has_out
    ]


def acyclic_graph_groupoid(spec: GraphSpec) -> FiniteGroupoid:
    """Objects are boundary paths; the disjoint union, over the sinks, of the
    pair groupoids on the paths ending at each sink."""
    cycle = _find_cycle(spec)
    if cycle is not None:
        raise ValueError(
            "graph has a cycle through " + " -> ".join(cycle) + "; only acyclic graphs have finitely many boundary paths"
        )
    return _pair_union(_boundary_paths(spec))


def single_edge_graph() -> GraphSpec:
    return GraphSpec(("v", "w"), (("v", "w"),))


# -- seeded random generators ----------------------------------------------------


def random_invertible(ring: Ring, n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random invertible matrix and its inverse.

    The matrix is a product of elementary operations, so it stays
    invertible over Z (unimodular) as well as over fields.  The inverse is
    the one ``matrix_inverse`` computes when the matrix is checked."""
    if n == 0:
        empty = Matrix(ring, 0, 0, ())
        return empty, empty
    # Every entry stays an integer (reduced mod p over Z/p), so the row
    # operations run on plain ints and the matrix is built from them once.
    p = ring.modulus
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n * n + 2):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:  # shear: row_i += c * row_j
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:  # swap
            m[i], m[j] = m[j], m[i]
            continue
        else:  # scale by a unit
            if ring.is_field:
                choices = [2, -1] if ring.kind == "Q" else list(range(1, ring.modulus))
                c = rng.choice(choices)
            else:
                c = rng.choice([1, -1])
            m[i] = [c * a for a in m[i]]
        if p is not None:
            m[i] = [x % p for x in m[i]]
    out = Matrix.from_ints(ring, m, n)
    inverse = matrix_inverse(out)
    assert inverse is not None
    return out, inverse


def random_sheaf(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GSheaf:
    """A random sheaf, deterministic in the seed.

    Stalk ranks are constant on connected components (transports are
    invertible, so they must be).  Each component mixes a twisted-constant
    part with optional copies of the component's regular permutation part
    (arrows acting on source fibers by composition), then every stalk is
    re-based by a random invertible change of basis; the unit space stays
    fixed while all transports become essentially arbitrary.
    """
    if not ring.supports_elimination:
        raise ValueError(f"random sheaves need a field or Z, not {ring.name}")
    rng = random.Random(seed)
    component_of: dict[ObjectId, int] = {}
    components = g.connected_components()
    for ci, comp in enumerate(components):
        for x in comp:
            component_of[x] = ci

    fiber: dict[ObjectId, tuple[ArrowId, ...]] = {x: g.arrows_with_src(x) for x in g.objects}
    plan: list[tuple[int, int]] = []  # per component: (constant rank, regular copies)
    for comp in components:
        f = len(fiber[comp[0]])
        options = [(c, r) for r in range(0, 3) for c in range(0, max_rank + 1) if c + r * f <= max_rank]
        plan.append(rng.choice(options) if options else (0, 0))

    stalk_rank: dict[ObjectId, int] = {}
    for x in g.objects:
        c, r = plan[component_of[x]]
        stalk_rank[x] = c + r * len(fiber[x])

    twists: dict[ObjectId, Matrix] = {}
    untwists: dict[ObjectId, Matrix] = {}
    for x in g.objects:
        twists[x], untwists[x] = random_invertible(ring, stalk_rank[x], rng)

    transport: dict[ArrowId, Matrix] = {}
    for a in g.arrows:
        x, y = g.dst[a], g.src[a]
        c, r = plan[component_of[x]]
        fx, fy = fiber[x], fiber[y]
        n_from, n_to = stalk_rank[x], stalk_rank[y]
        rows = [[0] * n_to for _ in range(n_from)]
        for i in range(c):
            rows[i][i] = 1
        # each regular copy permutes fiber basis vectors by right composition
        index_to = {arrow: k for k, arrow in enumerate(fy)}
        for copy in range(r):
            base_from = c + copy * len(fx)
            base_to = c + copy * len(fy)
            for k, arrow in enumerate(fx):
                moved = g.compose[(arrow, a)]
                rows[base_from + k][base_to + index_to[moved]] = 1
        raw = Matrix.from_ints(ring, rows, n_to)
        transport[a] = untwists[x] @ raw @ twists[y]
    return GSheaf(g, ring, stalk_rank, transport)


def random_module(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GModule:
    """A random unitary module: the section module of a random sheaf, then a
    random invertible change of the whole carrier's basis so that the block
    structure is hidden from every downstream computation."""
    rng = random.Random(seed)
    base = gamma_c(random_sheaf(g, ring, max_rank, rng.randrange(2**32)))
    q, q_inv = random_invertible(ring, base.rank, rng)
    action = {a: q @ base.action[a] @ q_inv for a in g.arrows}
    return GModule(g, ring, base.rank, action)
