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

from dataclasses import dataclass
from functools import cached_property
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
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        arrow_set = set(self.arrows)
        object_set = set(self.objects)
        for mapping, name in ((self.src, "src"), (self.dst, "dst")):
            if set(mapping) != arrow_set:
                raise ValueError(f"{name} map must cover exactly the arrow set")
            for g, x in mapping.items():
                if x not in object_set:
                    raise ValueError(f"{name}[{g!r}] = {x!r} is not an object")
        if set(self.unit) != object_set:
            raise ValueError("unit map must cover exactly the object set")
        for x, g in self.unit.items():
            if g not in arrow_set:
                raise ValueError(f"unit[{x!r}] = {g!r} is not an arrow")
        if set(self.inverse) != arrow_set:
            raise ValueError("inverse map must cover exactly the arrow set")
        for g, h in self.inverse.items():
            if h not in arrow_set:
                raise ValueError(f"inverse[{g!r}] = {h!r} is not an arrow")
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

    @cached_property
    def _unit_arrow_set(self) -> frozenset[ArrowId]:
        return frozenset(self.unit.values())

    def hom_set(self, x: ObjectId, y: ObjectId) -> tuple[ArrowId, ...]:
        """Arrows from x to y."""
        return self._hom_index.get((x, y), ())

    def arrows_with_src(self, x: ObjectId) -> tuple[ArrowId, ...]:
        return self._src_index.get(x, ())

    def is_unit_arrow(self, g: ArrowId) -> bool:
        return g in self._unit_arrow_set

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
    def isotropy_plan(self) -> IsotropyPlan | None:
        """Base objects, tree arrows and isotropy factors of every arrow, or
        None when the groupoid fails ``validate_groupoid``.  The tables are
        the ones that function's associativity check builds."""
        return None if _law_failures(self) else _associative_plan(self)


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms, reporting violations with witnesses.

    Every law but associativity reads the arrows ending at an object from an
    index, so its work is proportional to the arrows and the composition
    entries.  On a table that passes them, associativity is checked on the
    isotropy plan (``_associative_plan``) in time proportional to the
    composable pairs plus the sum of |K_x|³ over the base isotropy groups
    K_x.  Only when that check fails, or an earlier law did, are the
    composable triples (a, b, c) scanned for associativity witnesses.
    Failures come out law by law, each law in declaration order of its
    arrows (the endpoint law in the order of the composition table).
    """
    failures = _law_failures(g)
    if failures or _associative_plan(g) is None:
        failures.extend(_associativity_failures(g))
    return ValidationReport("groupoid", tuple(failures))


def _law_failures(g: FiniteGroupoid) -> list[Failure]:
    """The failures of every groupoid law but associativity."""
    failures: list[Failure] = []
    compose, src, dst, unit = g.compose, g.src, g.dst, g.unit

    for x in g.objects:
        e = unit[x]
        if src[e] != x or dst[e] != x:
            failures.append(Failure("unit endpoints", f"u({x!r}) = {e!r} is not an endo-arrow at {x!r}"))

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

    for a in g.arrows:
        if compose.get((unit[dst[a]], a)) != a or compose.get((a, unit[src[a]])) != a:
            failures.append(Failure("unit law", f"units do not act as identities on {a!r}"))

    for a in g.arrows:
        b = g.inverse[a]
        if src[b] != dst[a] or dst[b] != src[a]:
            failures.append(Failure("inverse law", f"g={a!r}: inverse has wrong endpoints"))
        elif compose.get((b, a)) != unit[src[a]] or compose.get((a, b)) != unit[dst[a]]:
            failures.append(Failure("inverse law", f"g={a!r}: g⁻¹g or gg⁻¹ is not the unit"))

    return failures


def _associative_plan(g: FiniteGroupoid) -> IsotropyPlan | None:
    """The isotropy plan of a table that passes ``_law_failures``, or None
    when the table is not associative.

    The tables: the base of each component is its first object, t_y is the
    first arrow from the base to y, and loop[a] = t_z⁻¹·(a·t_y) for a: y -> z
    lies in the base's isotropy set K.  The other laws make these lookups
    total: arrows compose whenever they are composable, with the right
    endpoints, and inverses reverse them, so the base reaches every object
    of its component by a single arrow.  Three checks follow:

    1. the table of K is associative (Σ|K|³ lookups);
    2. a ↦ (dst a, loop a, src a) is injective;
    3. loop[ab] = loop[a]·loop[b] for every composable pair (a, b).

    Why they suffice: on a component with object set C, the triples C×K×C
    with (z, k, y)·(y, l, w) = (z, kl, w) form a partial magma that is
    associative by check 1.  The map a ↦ (dst a, loop a, src a) sends
    composable pairs to composable pairs and, by check 3, products to
    products, so ((ab)c) and (a(bc)) have the same image, and by check 2
    they are the same arrow.  Conversely a groupoid passes all three, since
    there loop[ab] = t_z⁻¹·a·t_y·t_y⁻¹·b·t_w and a = t_z·loop[a]·t_y⁻¹.
    """
    compose, inverse, src, dst = g.compose, g.inverse, g.src, g.dst
    components = g.connected_components()
    tree: dict[ObjectId, ArrowId] = {}
    for comp in components:
        base = comp[0]
        tree[base] = g.unit[base]
        for y in comp[1:]:
            tree[y] = g.hom_set(base, y)[0]
    loop = {a: compose[(inverse[tree[dst[a]]], compose[(a, tree[src[a]])])] for a in g.arrows}

    for comp in components:
        group = g.hom_set(comp[0], comp[0])
        table = {(k, l): compose[(k, l)] for k in group for l in group}
        for (k, l), kl in table.items():
            for m in group:
                if table[(kl, m)] != table[(k, table[(l, m)])]:
                    return None
    if len({(dst[a], loop[a], src[a]) for a in g.arrows}) != len(g.arrows):
        return None
    for (a, b), ab in compose.items():
        if loop[ab] != compose[(loop[a], loop[b])]:
            return None
    return IsotropyPlan(components, tree, loop)


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


def source_objects(g: FiniteGroupoid, u: Bisection) -> tuple[ObjectId, ...]:
    """The compact open set U^{-1}U, i.e. the source objects of U."""
    return object_subset(g, (g.src[a] for a in u))


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
