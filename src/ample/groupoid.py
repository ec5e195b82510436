"""Finite groupoids with a discrete unit space, and their bisections.

A finite groupoid is stored as explicit tables: an ordered object set, an
ordered arrow set with source/target maps, a unit arrow per object, a
composition table on composable pairs, and an inversion table.  With the
unit space finite and discrete every subset of objects is compact open, so
the groupoid is ample and the compact open bisections are simply the arrow
subsets on which both the source and the target map are injective.  Those
bisections form an inverse semigroup under elementwise composition.

Arrows compose like functions: ``compose(g, h)`` is "first h, then g" and
is defined exactly when ``src[g] == dst[h]``.  An arrow g runs from
``src[g]`` to ``dst[g]``.

Declaration order of objects and arrows is the canonical iteration order
everywhere, which keeps every derived report byte-reproducible.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .validation import Failure, ValidationReport

ObjectId = Hashable
ArrowId = Hashable

BISECTION_ENUM_GUARD = 16  # arrows; bench/workloads.py mirrors this value


class SizeGuardError(ValueError):
    """Raised when an exhaustive enumeration would exceed its size guard."""


class IsotropyPlan(NamedTuple):
    """A valid groupoid seen from one base object per connected component.

    ``components`` lists the connected components, each with its base object
    first.  ``tree[y]`` is the first arrow (declaration order) from the base
    of y's component to y, and the unit arrow at a base itself.  For an arrow
    a: y -> z, ``loop[a]`` is tree[z]⁻¹ · a · tree[y], an arrow of the base's
    isotropy group, so that a = tree[z] · loop[a] · tree[y]⁻¹.
    """

    components: tuple[tuple[ObjectId, ...], ...]
    tree: Mapping[ObjectId, ArrowId]
    loop: Mapping[ArrowId, ArrowId]


@dataclass(frozen=True)
class FiniteGroupoid:
    objects: tuple[ObjectId, ...]
    arrows: tuple[ArrowId, ...]
    src: Mapping[ArrowId, ObjectId]
    dst: Mapping[ArrowId, ObjectId]
    unit: Mapping[ObjectId, ArrowId]
    compose: Mapping[tuple[ArrowId, ArrowId], ArrowId]
    inverse: Mapping[ArrowId, ArrowId]

    def __post_init__(self) -> None:
        # Referential integrity only; the axioms live in validate_groupoid.
        # Each map is checked by set comparisons, and a loop runs only to
        # name the first bad entry.
        sets = {"object": set(self.objects), "arrow": set(self.arrows)}
        if len(sets["object"]) != len(self.objects):
            raise ValueError("duplicate object ids")
        if len(sets["arrow"]) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        for name, mapping, keys, values in (
            ("src", self.src, "arrow", "object"),
            ("dst", self.dst, "arrow", "object"),
            ("unit", self.unit, "object", "arrow"),
            ("inverse", self.inverse, "arrow", "arrow"),
        ):
            if mapping.keys() != sets[keys]:
                raise ValueError(f"{name} map must cover exactly the {keys} set")
            allowed = sets[values]
            if not allowed.issuperset(mapping.values()):
                g, x = next((g, x) for g, x in mapping.items() if x not in allowed)
                raise ValueError(f"{name}[{g!r}] = {x!r} is not an {values}")
        arrow_set = sets["arrow"]
        if not (arrow_set.issuperset(chain.from_iterable(self.compose))
                and arrow_set.issuperset(self.compose.values())):  # name the first bad entry
            for (g, h), gh in self.compose.items():
                for a in (g, h, gh):
                    if a not in arrow_set:
                        raise ValueError(f"compose entry {(g, h, gh)!r} references unknown arrow {a!r}")

    @cached_property
    def object_index(self) -> dict[ObjectId, int]:
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def arrow_index(self) -> dict[ArrowId, int]:
        return {g: i for i, g in enumerate(self.arrows)}

    def composable(self, g: ArrowId, h: ArrowId) -> bool:
        return self.src[g] == self.dst[h]

    def mul(self, g: ArrowId, h: ArrowId) -> ArrowId:
        try:
            return self.compose[(g, h)]
        except KeyError:
            raise ValueError(f"arrows {g!r} and {h!r} are not composable") from None

    def composable_pairs(self) -> Iterator[tuple[ArrowId, ArrowId]]:
        """Every (g, h) with src[g] == dst[h], g then h in declaration order."""
        for g in self.arrows:
            for h in self._dst_index.get(self.src[g], ()):
                yield g, h

    @cached_property
    def _hom_index(self) -> dict[tuple[ObjectId, ObjectId], tuple[ArrowId, ...]]:
        index: dict[tuple[ObjectId, ObjectId], list[ArrowId]] = {}
        for g in self.arrows:
            index.setdefault((self.src[g], self.dst[g]), []).append(g)
        return {key: tuple(found) for key, found in index.items()}

    @cached_property
    def _src_index(self) -> dict[ObjectId, tuple[ArrowId, ...]]:
        index: dict[ObjectId, list[ArrowId]] = {}
        for g in self.arrows:
            index.setdefault(self.src[g], []).append(g)
        return {x: tuple(found) for x, found in index.items()}

    @cached_property
    def _dst_index(self) -> dict[ObjectId, tuple[ArrowId, ...]]:
        index: dict[ObjectId, list[ArrowId]] = {}
        for g in self.arrows:
            index.setdefault(self.dst[g], []).append(g)
        return {x: tuple(found) for x, found in index.items()}

    def hom_set(self, x: ObjectId, y: ObjectId) -> tuple[ArrowId, ...]:
        """Arrows from x to y."""
        return self._hom_index.get((x, y), ())

    def arrows_with_src(self, x: ObjectId) -> tuple[ArrowId, ...]:
        return self._src_index.get(x, ())

    def connected_components(self) -> tuple[tuple[ObjectId, ...], ...]:
        """Object classes joined by arrows (in declaration order)."""
        parent: dict[ObjectId, ObjectId] = {x: x for x in self.objects}

        def find(x: ObjectId) -> ObjectId:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.arrows:
            a, b = find(self.src[g]), find(self.dst[g])
            if a != b:
                parent[b] = a
        groups: dict[ObjectId, list[ObjectId]] = {}
        for x in self.objects:
            groups.setdefault(find(x), []).append(x)
        ordered = sorted(groups.values(), key=lambda grp: self.object_index[grp[0]])
        return tuple(tuple(grp) for grp in ordered)

    @cached_property
    def _laws(self) -> tuple[IsotropyPlan | None, tuple[Failure, ...]]:
        """``_associative_plan`` of this groupoid, derived once and kept."""
        return _associative_plan(self)

    @cached_property
    def isotropy_plan(self) -> IsotropyPlan | None:
        """Base objects, tree arrows and isotropy factors of every arrow, or
        None when the groupoid fails ``validate_groupoid``."""
        return self._laws[0]


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms, reporting violations with witnesses.

    The witnesses come from the scan that derives the ``isotropy_plan``
    (``_associative_plan``), run once per groupoid and kept, so a groupoid
    passes exactly when it has a plan.
    """
    return ValidationReport("groupoid", g._laws[1])


def _composition_failures(g: FiniteGroupoid) -> list[Failure]:
    """The failures of composition totality, domain and endpoints."""
    failures: list[Failure] = []
    compose, src, dst = g.compose, g.src, g.dst

    # Composition entries on non-composable pairs, grouped by first arrow.
    stray: dict[ArrowId, list[ArrowId]] = {}
    for a, b in compose:
        if src[a] != dst[b]:
            stray.setdefault(a, []).append(b)
    for a in g.arrows:
        partners = g._dst_index.get(src[a], ())
        if a not in stray:  # every partner is composable
            for b in partners:
                if (a, b) not in compose:
                    failures.append(Failure("composition totality", f"({a!r},{b!r}) composable but undefined"))
            continue
        for b in sorted((*partners, *stray[a]), key=g.arrow_index.__getitem__):
            defined = (a, b) in compose
            if src[a] == dst[b]:
                if not defined:
                    failures.append(Failure("composition totality", f"({a!r},{b!r}) composable but undefined"))
            elif defined:
                failures.append(Failure("composition domain", f"({a!r},{b!r}) defined but not composable"))

    for (a, b), ab in compose.items():
        if src[a] == dst[b] and (src[ab] != src[b] or dst[ab] != dst[a]):
            failures.append(Failure("composition endpoints", f"{a!r}*{b!r} = {ab!r} has wrong endpoints"))
    return failures


def _associative_plan(g: FiniteGroupoid) -> tuple[IsotropyPlan | None, tuple[Failure, ...]]:
    """The isotropy plan of a groupoid and no failures, or None and the
    witnesses of every law its table breaks.

    The tables: the base of each component is its first object, t_y is the
    first arrow from the base to y, and loop[a] = t_z⁻¹·(a·t_y) for a: y -> z
    lies in the base's isotropy set K.  The plan is built when, in turn:

    1. each unit is an endo-arrow at its object, units act as identities,
       and each inverse reverses its arrow with unit products both ways;
    2. the table has one entry per composable pair (a count), and each
       entry (a, b) is composable with ab: src b -> dst a and
       loop[ab] = loop[a]·loop[b];
    3. a ↦ (dst a, loop a, src a) is injective;
    4. the table of K is associative (``is_associative``, Light's test).

    With check 1 the lookups that build the tables are total, since the base
    reaches every object of its component by a single arrow.  Why 2-4 then
    give associativity: on a component with object set C, the triples C×K×C
    with (z, k, y)·(y, l, w) = (z, kl, w) form a partial magma that is
    associative by check 4.  The map a ↦ (dst a, loop a, src a) sends
    composable pairs to composable pairs and, by check 2, products to
    products, so ((ab)c) and (a(bc)) have the same image, and by check 3
    they are the same arrow.  Conversely a groupoid passes every check,
    since there loop[ab] = t_z⁻¹·a·t_y·t_y⁻¹·b·t_w and a = t_z·loop[a]·t_y⁻¹.

    The cost is one lookup per entry and a few per arrow, plus Σ|K|² for
    the tables of K and Σ|K|²·|S| for the generating sets S of check 4.

    Otherwise the failures come law by law, each law in declaration order of
    its arrows (the endpoint law in the order of the composition table):
    unit endpoints, the composition laws (``_composition_failures``), unit
    law, inverse law, and the composable triples (a, b, c) whose two
    bracketings differ.  When those find nothing, a key is no tuple (such as
    "ee", which unpacks as a pair), and the law "composition key" names the
    first.
    """
    compose, inverse, src, dst, unit = g.compose, g.inverse, g.src, g.dst, g.unit
    get = compose.get
    ends: list[Failure] = []
    for x in g.objects:
        e = unit[x]
        if src[e] != x or dst[e] != x:
            ends.append(Failure("unit endpoints", f"u({x!r}) = {e!r} is not an endo-arrow at {x!r}"))
    units: list[Failure] = []
    inverses: list[Failure] = []
    for a in g.arrows:
        y, z, b = src[a], dst[a], inverse[a]
        ey, ez = unit[y], unit[z]
        if get((ez, a)) != a or get((a, ey)) != a:
            units.append(Failure("unit law", f"units do not act as identities on {a!r}"))
        if src[b] != z or dst[b] != y:
            inverses.append(Failure("inverse law", f"g={a!r}: inverse has wrong endpoints"))
        elif get((b, a)) != ey or get((a, b)) != ez:
            inverses.append(Failure("inverse law", f"g={a!r}: g⁻¹g or gg⁻¹ is not the unit"))
    heads = Counter(dst.values())
    pairs = sum(n * heads[x] for x, n in Counter(src.values()).items())
    if not (ends or units or inverses) and len(compose) == pairs:
        plan = _plan_tables(g)
        if plan is not None:
            return plan, ()
    failures = ends + _composition_failures(g) + units + inverses + _associativity_failures(g)
    if not failures:
        key = next(key for key in compose if not isinstance(key, tuple))
        failures.append(Failure("composition key", f"{key!r} is not a pair of arrows"))
    return None, tuple(failures)


def _plan_tables(g: FiniteGroupoid) -> IsotropyPlan | None:
    """Checks 2-4 of ``_associative_plan`` on a table that passes check 1
    and has as many entries as composable pairs: the plan, or None.

    Each arrow's ends (src a, dst a, loop a) are read into one tuple, and
    each base isotropy group K into rows[k] = {l: k·l}, so an entry costs
    three reads of the ends and one of rows[loop a][loop b].  rows gives
    the product loop[a]·loop[b] wherever the table has it, so the verdict is
    the one that reading that product off the table gives.  A miss in rows
    returns None, and the table then fails check 2 too.  If instead every
    entry passed check 2, every loop would lie in its base's K: the entries
    (a, t_y) and (t_z⁻¹, a·t_y) would have the right endpoints, and t_z⁻¹
    runs from z to the base by check 1.  All composable pairs would then be
    entries, those of K×K and each (loop a, loop b) of a composable pair
    (a, b) among them, and nothing in rows could miss."""
    compose, inverse, src, dst = g.compose, g.inverse, g.src, g.dst
    components = g.connected_components()
    tree: dict[ObjectId, ArrowId] = {}
    for comp in components:
        base = comp[0]
        tree[base] = g.unit[base]
        for y in comp[1:]:
            reach = g.hom_set(base, y)
            if not reach:
                return None
            tree[y] = reach[0]
    groups = [g.hom_set(comp[0], comp[0]) for comp in components]
    try:
        loop = {a: compose[(inverse[tree[dst[a]]], compose[(a, tree[src[a]])])] for a in g.arrows}
        ends = {a: (src[a], dst[a], loop[a]) for a in g.arrows}
        rows = {k: {l: compose[(k, l)] for l in group} for group in groups for k in group}
        for (a, b), ab in compose.items():
            ya, za, ka = ends[a]
            yb, zb, kb = ends[b]
            y, z, k = ends[ab]
            if ya != zb or y != yb or z != za or k != rows[ka][kb]:
                return None
    except KeyError:  # a law is broken, so a product the tables need is missing
        return None
    if len(set(ends.values())) != len(g.arrows):
        return None
    for group in groups:
        if not is_associative({k: rows[k] for k in group}):
            return None
    return IsotropyPlan(components, tree, loop)


def is_associative(products: Mapping[Hashable, Mapping[Hashable, Hashable]]) -> bool:
    """Whether a finite magma is associative, given its rows of products
    k ↦ {l: k·l}: every product of two elements present and an element, the
    elements in the order of ``products``.

    Light's test (A. H. Clifford and G. B. Preston, *The Algebraic Theory of
    Semigroups*, vol. 1, 1961, §1.2): the elements s with (x·s)·y = x·(s·y)
    for all x, y are closed under the product, so it suffices to check s in
    a generating set S.  S is found greedily in declaration order: an
    element joins S when the products of S so far, closed under right
    multiplication by S, do not reach it.  That is |M|² lookups for the
    rows of element indices, |M|·|S| steps for S and |M|²·|S| comparisons,
    a row at a time, for the test."""
    elements = tuple(products)
    n = len(elements)
    if n < 2:  # a one-element magma is a semigroup
        return True
    index = {k: i for i, k in enumerate(elements)}
    read = itemgetter(*elements)
    rows = [tuple(map(index.__getitem__, read(row))) for row in products.values()]
    reached: set[int] = set()
    gens: list[int] = []
    for i in range(n):
        if i in reached:
            continue
        gens.append(i)
        todo = [i, *[rows[c][i] for c in reached]]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                row = rows[x]
                todo.extend([row[s] for s in gens])
    for s in gens:  # row x·s of the table against x's row read at the entries s·y
        if [rows[row[s]] for row in rows] != list(map(itemgetter(*rows[s]), rows)):
            return False
    return True


def _associativity_failures(g: FiniteGroupoid) -> list[Failure]:
    """Every composable triple whose two bracketings differ or are missing."""
    failures: list[Failure] = []
    compose = g.compose
    for a, b in g.composable_pairs():
        ab = compose.get((a, b))
        if ab is None:
            continue
        for c in g._dst_index.get(g.src[b], ()):
            bc = compose.get((b, c))
            if bc is not None and compose.get((ab, c)) != compose.get((a, bc)):
                failures.append(Failure("associativity", f"(({a!r}{b!r}){c!r}) != ({a!r}({b!r}{c!r}))"))
    return failures


# -- compact open object subsets -------------------------------------------


def object_subset(g: FiniteGroupoid, points: Iterable[ObjectId]) -> tuple[ObjectId, ...]:
    """Normalize a compact open subset of the unit space (declaration order)."""
    seen = set()
    for x in points:
        if x not in g.object_index:
            raise ValueError(f"unknown object id {x!r}")
        seen.add(x)
    return tuple(x for x in g.objects if x in seen)


def restrict_groupoid(g: FiniteGroupoid, points: Iterable[ObjectId]) -> FiniteGroupoid:
    """The full open subgroupoid on a subset of objects."""
    objs = object_subset(g, points)
    keep = set(objs)
    arrows = tuple(a for a in g.arrows if g.src[a] in keep and g.dst[a] in keep)
    arrow_set = set(arrows)
    return FiniteGroupoid(
        objects=objs,
        arrows=arrows,
        src={a: g.src[a] for a in arrows},
        dst={a: g.dst[a] for a in arrows},
        unit={x: g.unit[x] for x in objs},
        compose={(a, b): c for (a, b), c in g.compose.items() if a in arrow_set and b in arrow_set},
        inverse={a: g.inverse[a] for a in arrows},
    )


# -- bisections -------------------------------------------------------------


@dataclass(frozen=True)
class Bisection:
    """A compact open bisection: an arrow subset with injective src and dst."""

    arrows: tuple[ArrowId, ...]  # sorted by declaration index

    @staticmethod
    def of(g: FiniteGroupoid, arrows: Iterable[ArrowId]) -> "Bisection":
        chosen = set(arrows)
        for a in chosen:
            if a not in g.arrow_index:
                raise ValueError(f"unknown arrow id {a!r}")
        ordered = tuple(sorted(chosen, key=g.arrow_index.__getitem__))
        if not _injective_endpoints(g, ordered):
            raise ValueError(f"arrow set {sorted(map(repr, chosen))} is not a bisection")
        return Bisection(ordered)

    def __iter__(self) -> Iterator[ArrowId]:
        return iter(self.arrows)

    def __len__(self) -> int:
        return len(self.arrows)

    def __contains__(self, a: ArrowId) -> bool:
        return a in self.arrows

    def label(self) -> str:
        return "{" + ",".join(str(a) for a in self.arrows) + "}"


def _injective_endpoints(g: FiniteGroupoid, arrows: tuple[ArrowId, ...]) -> bool:
    srcs = {g.src[a] for a in arrows}
    dsts = {g.dst[a] for a in arrows}
    return len(srcs) == len(arrows) and len(dsts) == len(arrows)


def is_bisection(g: FiniteGroupoid, arrows: Iterable[ArrowId]) -> bool:
    chosen = tuple(arrows)
    for a in chosen:
        if a not in g.arrow_index:
            raise ValueError(f"unknown arrow id {a!r}")
    if len(set(chosen)) != len(chosen):
        return False
    return _injective_endpoints(g, chosen)


def bisection_product(g: FiniteGroupoid, u: Bisection, v: Bisection) -> Bisection:
    """Elementwise set product UV = {uv : defined}; always a bisection."""
    out = {g.compose[(a, b)] for a in u for b in v if g.composable(a, b)}
    return Bisection.of(g, out)


def bisection_inverse(g: FiniteGroupoid, u: Bisection) -> Bisection:
    return Bisection.of(g, (g.inverse[a] for a in u))


def unit_bisection(g: FiniteGroupoid, points: Iterable[ObjectId] | None = None) -> Bisection:
    objs = g.objects if points is None else object_subset(g, points)
    return Bisection.of(g, (g.unit[x] for x in objs))


def enumerate_bisections(g: FiniteGroupoid) -> list[Bisection]:
    """All compact open bisections, ordered by (size, arrow indices).

    A depth-first search grows each bisection only by later arrows whose
    source and target are both still free, so it visits the bisections and
    no other arrow subset.  The result lists them size by size, each size in
    lexicographic order of arrow indices.
    """
    n = len(g.arrows)
    if n > BISECTION_ENUM_GUARD:
        raise SizeGuardError(
            f"bisection enumeration is guarded at {BISECTION_ENUM_GUARD} arrows, got {n}"
        )
    ends = [(g.src[a], g.dst[a]) for a in g.arrows]
    found: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], srcs: frozenset, dsts: frozenset) -> None:
        found.append(chosen)
        for i in range(chosen[-1] + 1 if chosen else 0, n):
            x, y = ends[i]
            if x not in srcs and y not in dsts:
                extend(chosen + (i,), srcs | {x}, dsts | {y})

    extend((), frozenset(), frozenset())
    found.sort(key=lambda combo: (len(combo), combo))
    return [Bisection(tuple(g.arrows[i] for i in combo)) for combo in found]
