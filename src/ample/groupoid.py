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
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    def isotropy_plan(self) -> IsotropyPlan | None:
        """Base objects, tree arrows and isotropy factors of every arrow, or
        None when the groupoid fails ``validate_groupoid``.  The tables are
        the ones that function's one-pass check builds."""
        return _associative_plan(self)


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms, reporting violations with witnesses.

    A groupoid with an ``isotropy_plan`` passes, and the plan, derived once
    per groupoid and kept, serves every later module and sheaf built on it.
    Deriving it (``_associative_plan``) checks every law in one pass, in
    time proportional to the composable pairs plus Σ|K_x|²·|S_x| over the
    base isotropy groups K_x with their generating sets S_x.  Only when
    there is no plan are the laws scanned again for their failures and the
    composable triples (a, b, c) for associativity witnesses.  Failures come
    out law by law, each law in declaration order of its arrows (the
    endpoint law in the order of the composition table).  When the scans
    find nothing, a key is no tuple (such as "ee", which unpacks as a pair):
    the law "composition key" names the first, so a groupoid passes exactly
    when it has a plan.
    """
    if g.isotropy_plan is not None:
        return ValidationReport("groupoid", ())
    failures = _law_failures(g) + _associativity_failures(g)
    if not failures:
        key = next(key for key in g.compose if not isinstance(key, tuple))
        failures.append(Failure("composition key", f"{key!r} is not a pair of arrows"))
    return ValidationReport("groupoid", tuple(failures))


def _law_failures(g: FiniteGroupoid) -> list[Failure]:
    """The failures of every groupoid law but associativity, as witnesses."""
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
    """The isotropy plan of a groupoid, or None when its table breaks a law.

    The tables: the base of each component is its first object, t_y is the
    first arrow from the base to y, and loop[a] = t_z⁻¹·(a·t_y) for a: y -> z
    lies in the base's isotropy set K.  One pass checks, in turn:

    1. each unit is an endo-arrow at its object, units act as identities,
       and each inverse reverses its arrow with unit products both ways;
    2. the table has one entry per composable pair (a count), and each
       entry (a, b) is composable with ab: src b -> dst a and
       loop[ab] = loop[a]·loop[b];
    3. a ↦ (dst a, loop a, src a) is injective;
    4. the table of K is associative (``is_associative``, Light's test).

    Checks 1 and 2 are the laws ``_law_failures`` names; with them the
    lookups that build the tables are total, since the base reaches every
    object of its component by a single arrow.  Why 2-4 then give
    associativity: on a component with object set C, the triples C×K×C
    with (z, k, y)·(y, l, w) = (z, kl, w) form a partial magma that is
    associative by check 4.  The map a ↦ (dst a, loop a, src a) sends
    composable pairs to composable pairs and, by check 2, products to
    products, so ((ab)c) and (a(bc)) have the same image, and by check 3
    they are the same arrow.  Conversely a groupoid passes every check,
    since there loop[ab] = t_z⁻¹·a·t_y·t_y⁻¹·b·t_w and a = t_z·loop[a]·t_y⁻¹.

    The cost is one lookup per entry and a few per arrow, plus
    Σ|K|²·|S| for the generating sets S of check 4.
    """
    compose, inverse, src, dst, unit = g.compose, g.inverse, g.src, g.dst, g.unit
    get = compose.get
    for x, e in unit.items():
        if src[e] != x or dst[e] != x:
            return _no_plan(compose)
    for a in g.arrows:
        y, z, b = src[a], dst[a], inverse[a]
        ey, ez = unit[y], unit[z]
        if (src[b] != z or dst[b] != y or get((ez, a)) != a or get((a, ey)) != a
                or get((b, a)) != ey or get((a, b)) != ez):
            return _no_plan(compose)
    ends = Counter(dst.values())
    if len(compose) != sum(n * ends[x] for x, n in Counter(src.values()).items()):
        return _no_plan(compose)

    components = g.connected_components()
    tree: dict[ObjectId, ArrowId] = {}
    for comp in components:
        base = comp[0]
        tree[base] = unit[base]
        for y in comp[1:]:
            reach = g.hom_set(base, y)
            if not reach:
                return _no_plan(compose)
            tree[y] = reach[0]
    try:
        loop = {a: compose[(inverse[tree[dst[a]]], compose[(a, tree[src[a]])])] for a in g.arrows}
        for (a, b), ab in compose.items():
            if (src[a] != dst[b] or src[ab] != src[b] or dst[ab] != dst[a]
                    or loop[ab] != compose[(loop[a], loop[b])]):
                return _no_plan(compose)
    except KeyError:  # a law is broken, so a product the tables need is missing
        return _no_plan(compose)
    if len({(dst[a], loop[a], src[a]) for a in g.arrows}) != len(g.arrows):
        return None
    for comp in components:
        if not is_associative(g.hom_set(comp[0], comp[0]), compose):
            return None
    return IsotropyPlan(components, tree, loop)


def _no_plan(compose: Mapping) -> None:
    """None, once every key of ``compose`` unpacks into a pair: a key that
    does not raises here as it does in ``_law_failures``."""
    for _a, _b in compose:
        pass
    return None


def is_associative(elements: Sequence[Hashable], table: Mapping[tuple, Hashable]) -> bool:
    """Whether a finite magma is associative, given its elements and a table
    that holds every product of two of them and only elements as values.

    Light's test (A. H. Clifford and G. B. Preston, *The Algebraic Theory of
    Semigroups*, vol. 1, 1961, §1.2): the elements s with (x·s)·y = x·(s·y)
    for all x, y are closed under the product, so it suffices to check s in
    a generating set S.  S is found greedily in declaration order: an
    element joins S when the products of S so far, closed under right
    multiplication by S, do not reach it.  That is |M|² lookups for the
    rows of element indices, |M|·|S| steps for S and |M|²·|S| comparisons,
    a row at a time, for the test."""
    n = len(elements)
    if n < 2:  # a one-element magma is a semigroup
        return True
    index = {k: i for i, k in enumerate(elements)}
    rows = [tuple([index[table[(k, l)]] for l in elements]) for k in elements]
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
