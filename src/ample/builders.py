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
from itertools import accumulate, permutations, product
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .gmodule import GModule
from .groupoid import ArrowId, FiniteGroupoid, ObjectId, is_associative
from .gsheaf import GSheaf
from .rings import Matrix, Ring, _held


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


def symmetric_group(n: int) -> tuple[tuple[str, ...], dict[tuple[str, str], str]]:
    """Element names and multiplication table of S_n, 1 <= n <= 9.

    A permutation p of 1..n is named by its images p(1)…p(n) as digits, so
    the identity "12…n" comes first and the rest follow in lexicographic
    order; character i-1 of a name is the image of i.  Permutations compose
    like arrows: the product (p, q) is p∘q, first q, then p."""
    if not 1 <= n <= 9:
        raise ValueError("symmetric group needs 1 <= n <= 9")
    names = tuple("".join(p) for p in permutations("123456789"[:n]))
    reads = [itemgetter(*[int(i) - 1 for i in q]) for q in names]  # (p∘q)(i) = p(q(i))
    table = {(p, q): "".join(read(p)) for p in names for q, read in zip(names, reads)}
    return names, table


def _check_group(
    elements: Sequence[str], table: Mapping[tuple[str, str], str]
) -> tuple[str, dict[str, str]]:
    """The identity and the inverse of each element of a group table;
    raises ValueError "not a group table: ..." naming the first law broken."""
    elems = set(elements)
    if len(elems) != len(elements):
        raise ValueError("not a group table: duplicate element names")
    for a, b in product(elements, repeat=2):
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
    if not is_associative(elements, table):  # name the first triple that fails
        for a, b, c in product(elements, repeat=3):
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
    for g, x in product(elements, points):
        if action.get((g, x)) not in point_set:
            raise ValueError(f"not an action: ({g},{x}) missing or unknown")
    for x in points:
        if action[(identity, x)] != x:
            raise ValueError(f"not an action: identity moves {x}")
    name = {(g, x): f"({g},{x})" for g in elements for x in points}
    compose = {}
    for g, h, x in product(elements, elements, points):
        gh, hx = table[(g, h)], action[(h, x)]
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


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, or the index ``rng.choice`` takes among n
    items, on the same bits: ``Random._randbelow``'s loop on ``getrandbits``."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_invertible(ring: Ring, n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random invertible matrix and its inverse.

    The matrix is a product of elementary row operations, so it stays
    invertible over Z (unimodular) as well as over fields.  Its inverse,
    the reversed operations, is built alongside and held transposed, where
    each is a row operation.  Over Z/m every row is kept in [0, m), so both
    are held as they are.  Over Q each row t_h of the transposed inverse is
    held over its own power of two 2**s[h]: halving a row adds one to its
    exponent, a row operation first aligns its two rows by a shift, and
    the rows are brought over their largest exponent once, at the end.
    Every draw is ``_below``'s loop, inline, on the same ``getrandbits``
    widths."""
    p, bits, k = ring.modulus, rng.getrandbits, n.bit_length()
    units = (2, -1) if ring.kind == "Q" else None if ring.is_field else (1, -1)
    count = p - 1 if units is None else 2  # a unit is 1 + _below(rng, p - 1), or units[_below(rng, 2)]
    k_unit = count.bit_length()
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    t = [row[:] for row in m]  # the inverse, transposed; off Z/m row h over 2**s[h]
    s = [0] * n
    for _ in range(2 * n * n + 2 if n else 0):  # the empty matrix takes no draws
        kind = bits(2)
        while kind == 3:
            kind = bits(2)
        i = bits(k)
        while i >= n:
            i = bits(k)
        j = bits(k)
        while j >= n:
            j = bits(k)
        if kind == 0 and i != j:  # row_i += c * row_j, so t_j -= c * t_i
            r = bits(3)
            while r >= 4:
                r = bits(3)
            c, u, v, w, z = (-2, -1, 1, 2)[r], m[i], m[j], t[j], t[i]
            if p:
                m[i], t[j] = [(a + c * b) % p for a, b in zip(u, v)], [(a - c * b) % p for a, b in zip(w, z)]
                continue
            m[i], shift = [a + c * b for a, b in zip(u, v)], s[j] - s[i]
            if shift >= 0:  # t_i over 2**s[j]: c * 2**shift times its numerators
                c <<= shift
                t[j] = [a - c * b for a, b in zip(w, z)]
            else:  # t_j over 2**s[i]
                f, s[j] = 1 << -shift, s[i]
                t[j] = [f * a - c * b for a, b in zip(w, z)]
        elif kind == 1 and i != j:
            m[i], m[j], t[i], t[j], s[i], s[j] = m[j], m[i], t[j], t[i], s[j], s[i]
        else:  # row_i *= c for a unit c, so t_i *= 1/c
            r = bits(k_unit)
            while r >= count:
                r = bits(k_unit)
            c = 1 + r if units is None else units[r]
            if p:
                c_inv = pow(c, -1, p)
                m[i], t[i] = [c * a % p for a in m[i]], [c_inv * a % p for a in t[i]]
            elif c == 2:  # over Q: halve t_i
                m[i], s[i] = [2 * a for a in m[i]], s[i] + 1
            else:
                m[i], t[i] = [c * a for a in m[i]], [c * a for a in t[i]]
    if p:
        return _held(ring, n, n, tuple(map(tuple, m))), _held(ring, n, n, tuple(zip(*t)))
    e = max(s, default=0)
    t = [row if h == e else [a << e - h for a in row] for row, h in zip(t, s)]
    return Matrix.from_ints(ring, m, n), Matrix.from_ints(ring, list(zip(*t)), n, 1 << e)


class _Shape(NamedTuple):
    """What every draw of ``_sheaf_parts`` on one groupoid reads."""

    sizes: tuple[int, ...]  # per connected component, the fibre size at its first object
    slots: tuple[tuple[ObjectId, int, int], ...]  # per object: it, its component, its fibre size
    into: tuple[tuple[ArrowId, ...], ...]  # per component, the arrows into it
    fiber: dict[ObjectId, tuple[ArrowId, ...]]  # the arrows out of each object
    index: dict[ArrowId, int]  # each arrow's place in its fibre
    orders: dict[tuple[int, int, int], dict[ArrowId, tuple[int, ...] | None]]  # see _row_orders


def _sampling_shape(g: FiniteGroupoid) -> _Shape:
    """The ``_Shape`` of ``g``, derived once and kept in its instance dict;
    its row orders are filled as draws ask for them."""
    held = g.__dict__
    if "_sampling_shape" not in held:
        fiber = {x: g.arrows_with_src(x) for x in g.objects}
        comps = g.connected_components()
        where = {x: ci for ci, comp in enumerate(comps) for x in comp}
        into: list[list[ArrowId]] = [[] for _ in comps]
        for a in g.arrows:
            into[where[g.dst[a]]].append(a)
        held["_sampling_shape"] = _Shape(
            sizes=tuple([len(fiber[comp[0]]) for comp in comps]),
            slots=tuple([(x, where[x], len(fiber[x])) for x in g.objects]),
            into=tuple(map(tuple, into)),
            fiber=fiber,
            index={b: k for arrows in fiber.values() for k, b in enumerate(arrows)},
            orders={},
        )
    return held["_sampling_shape"]


def _row_orders(g: FiniteGroupoid, shape: _Shape, ci: int, c: int, r: int) -> dict[ArrowId, tuple[int, ...] | None]:
    """Per arrow a into component ``ci``, the order in which its transport
    takes the rows of ``twist[src a]``: c fixed rows, then each of r copies
    of the fibre at ``dst a``, composed with a.  An order that is the
    identity, as every order with no regular copy is, is None."""
    found = dict.fromkeys(shape.into[ci])
    for a in shape.into[ci] if r else ():
        fx = shape.fiber[g.dst[a]]
        order = (*range(c), *[c + k * len(fx) + shape.index[g.compose[(b, a)]] for k in range(r) for b in fx])
        if order != tuple(range(len(order))):
            found[a] = order
    return found


def _sheaf_parts(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> tuple[dict, dict, dict]:
    """The parts of ``random_sheaf(g, ring, max_rank, seed)`` in draw order:
    per component a constant rank c and r regular copies, a (twist,
    untwist) pair per object, and per arrow a the order in which the
    transport of a takes the rows of ``twist[src a]``, None for the
    identity (see ``_row_orders``).  Everything but the draws comes from
    the groupoid's ``_sampling_shape``."""
    if not ring.supports_elimination:
        raise ValueError(f"random sheaves need a field or Z, not {ring.name}")
    rng = random.Random(seed)
    shape = _sampling_shape(g)
    plan, orders = [], {}
    for ci, f in enumerate(shape.sizes):
        options = [(c, r) for r in range(0, 3) for c in range(0, max_rank + 1) if c + r * f <= max_rank]
        c, r = options[_below(rng, len(options))] if options else (0, 0)
        plan.append((c, r))
        if (ci, c, r) not in shape.orders:
            shape.orders[ci, c, r] = _row_orders(g, shape, ci, c, r)
        orders.update(shape.orders[ci, c, r])
    ranks = {x: plan[ci][0] + plan[ci][1] * f for x, ci, f in shape.slots}
    twists = {x: random_invertible(ring, ranks[x], rng) for x in g.objects}
    return ranks, twists, orders


def _in_order(m: Matrix, order: tuple[int, ...] | None) -> Matrix:
    """``m`` with its rows in ``order``, or ``m`` itself for None."""
    return m if order is None else m.permuted_rows(order)


def random_sheaf(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GSheaf:
    """A random sheaf, deterministic in the seed.

    Stalk ranks are constant on connected components (transports are
    invertible, so they must be).  Each component mixes a twisted-constant
    part with optional copies of the component's regular permutation part
    (arrows acting on source fibers by composition), then every stalk is
    re-based by a random invertible change of basis; the unit space stays
    fixed while all transports become essentially arbitrary: the transport
    of a is ``untwist[dst a]`` times ``twist[src a]`` with its rows permuted.
    """
    ranks, twists, orders = _sheaf_parts(g, ring, max_rank, seed)
    transport = {a: twists[g.dst[a]][1] @ _in_order(twists[g.src[a]][0], orders[a]) for a in g.arrows}
    return GSheaf(g, ring, ranks, transport)


def random_module(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GModule:
    """A random unitary module: the section module Γ_c(E) of a random sheaf
    E, then a random invertible change q of the whole carrier's basis.  q
    mostly hides the block structure, but a small q can be monomial (a
    permutation times units), which leaves every unit action a coordinate
    projector.

    The action of a is q·Γ_c(E)[a]·q⁻¹, with E's transport of a in the rows
    of Γ_c(E)[a] at ``dst a`` and its columns at ``src a``.  That is L[dst a]
    times R[src a] with its rows permuted, where L[x] is the columns of q at
    x times ``untwist[x]`` and R[x] is ``twist[x]`` times the rows of q⁻¹ at x:
    one product per arrow and two per object."""
    rng = random.Random(seed)
    ranks, twists, orders = _sheaf_parts(g, ring, max_rank, rng.randrange(2**32))
    q, q_inv = random_invertible(ring, sum(ranks.values()), rng)
    ends = {}
    for x, start in zip(g.objects, accumulate(ranks.values(), initial=0)):
        stop, (twist, untwist) = start + ranks[x], twists[x]
        ends[x] = q.column_slice(start, stop) @ untwist, twist @ q_inv.row_slice(start, stop)
    action = {a: ends[g.dst[a]][0] @ _in_order(ends[g.src[a]][1], orders[a]) for a in g.arrows}
    return GModule(g, ring, q.rows, action)
