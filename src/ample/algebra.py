"""The convolution algebra of a finite ample groupoid.

Elements are finitely supported coefficient functions on arrows, stored as
sparse maps with no explicit zeros, so equality is equality of normal forms.
The product is convolution; on characteristic functions of bisections it
restricts to the bisection product, and the arrow singletons form a basis.
The algebra has an identity (the characteristic function of the unit arrows)
because a finite unit space is compact, and more generally has local units:
corner algebras cut out by compact open object sets exhaust the algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

from .groupoid import (
    ArrowId,
    Bisection,
    FiniteGroupoid,
    ObjectId,
    SizeGuardError,
    object_subset,
    restrict_groupoid,
    unit_bisection,
)
from .rings import Ring, Scalar
from .validation import Failure, ValidationReport

TABLE_GUARD = 64


@dataclass(frozen=True)
class AlgebraElement:
    groupoid: FiniteGroupoid
    ring: Ring
    coeffs: Mapping[ArrowId, Scalar]  # normal form: no zero values

    def __post_init__(self) -> None:
        for a, c in self.coeffs.items():
            if a not in self.groupoid.arrow_index:
                raise ValueError(f"unknown arrow id {a!r}")
            if self.ring.is_zero(c):
                raise ValueError(f"stored zero coefficient at {a!r}; use algebra_element()")

    @property
    def support(self) -> tuple[ArrowId, ...]:
        return tuple(sorted(self.coeffs, key=self.groupoid.arrow_index.__getitem__))

    def coefficient(self, a: ArrowId) -> Scalar:
        if a not in self.groupoid.arrow_index:
            raise ValueError(f"unknown arrow id {a!r}")
        return self.coeffs.get(a, self.ring.zero)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_compatible(self, other)
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = self.ring.add(merged.get(a, self.ring.zero), c)
        return algebra_element(self.groupoid, self.ring, merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return self.scaled(-1)

    def scaled(self, c: Any) -> "AlgebraElement":
        c = self.ring.coerce(c)
        return algebra_element(
            self.groupoid, self.ring, {a: self.ring.mul(c, v) for a, v in self.coeffs.items()}
        )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return convolve(self, other)

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        parts = [f"{self.ring.format_scalar(self.coeffs[a])}*[{a}]" for a in self.support]
        return " + ".join(parts)


def _check_compatible(f1: AlgebraElement, f2: AlgebraElement) -> None:
    # Identity first: elements of one table share their groupoid and ring.
    if f1.groupoid is not f2.groupoid and f1.groupoid != f2.groupoid:
        raise ValueError("groupoid mismatch between algebra elements")
    if f1.ring is not f2.ring and f1.ring != f2.ring:
        raise ValueError(f"ring mismatch: {f1.ring.name} vs {f2.ring.name}")


def algebra_element(
    g: FiniteGroupoid, ring: Ring, coeffs: Mapping[ArrowId, Any]
) -> AlgebraElement:
    """Build an element in normal form (coefficients coerced, zeros dropped)."""
    normal: dict[ArrowId, Scalar] = {}
    for a in sorted(coeffs, key=lambda k: _arrow_key(g, k)):
        value = ring.coerce(coeffs[a])
        if not ring.is_zero(value):
            normal[a] = value
    return AlgebraElement(g, ring, normal)


def _arrow_key(g: FiniteGroupoid, a: ArrowId) -> int:
    try:
        return g.arrow_index[a]
    except KeyError:
        raise ValueError(f"unknown arrow id {a!r}") from None


def zero_element(g: FiniteGroupoid, ring: Ring) -> AlgebraElement:
    return AlgebraElement(g, ring, {})


def char_fn(g: FiniteGroupoid, u: Bisection, ring: Ring) -> AlgebraElement:
    """Characteristic function of a compact open bisection."""
    return algebra_element(g, ring, {a: 1 for a in u})


def char_of_objects(g: FiniteGroupoid, points: Iterable[ObjectId], ring: Ring) -> AlgebraElement:
    """Characteristic function of a compact open subset of the unit space."""
    return char_fn(g, unit_bisection(g, points), ring)


def identity_element(g: FiniteGroupoid, ring: Ring) -> AlgebraElement:
    return char_fn(g, unit_bisection(g), ring)


def convolve(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    """Convolution product.

    Iterates over support pairs and accumulates f1(a)f2(b) at the composite
    ab; by the substitution a = g b^{-1} this agrees with the fiberwise sum
    over {h : src h = src g} of f1(g h^{-1}) f2(h).  The sums are native
    ``int``/``Fraction`` arithmetic, reduced once per composite over Z/m.
    """
    _check_compatible(f1, f2)
    g, ring = f1.groupoid, f1.ring
    src, dst, compose = g.src, g.dst, g.compose
    acc: dict[ArrowId, Scalar] = {}
    for a, ca in f1.coeffs.items():
        x = src[a]
        for b, cb in f2.coeffs.items():
            if x == dst[b]:
                ab = compose[(a, b)]
                acc[ab] = acc[ab] + ca * cb if ab in acc else ca * cb
    order = sorted(acc, key=g.arrow_index.__getitem__) if len(acc) > 1 else acc
    m = ring.modulus
    if m is not None:
        coeffs = {ab: c for ab in order if (c := acc[ab] % m)}
    elif ring.kind == "Q":  # an int sum comes from int values stored over Q
        coeffs = {ab: c if type(c) is Fraction else Fraction(c) for ab in order if (c := acc[ab])}
    else:
        coeffs = {ab: c for ab in order if (c := acc[ab])}
    return AlgebraElement(g, ring, coeffs)


def local_unit(g: FiniteGroupoid, fs: Sequence[AlgebraElement]) -> tuple[ObjectId, ...]:
    """A compact open U with chi_U * f * chi_U = f for every listed f.

    Takes all source and target objects of the supports (for one bisection V
    this is V^{-1}V together with VV^{-1}).
    """
    if not fs:
        raise ValueError("local_unit needs at least one algebra element")
    base = fs[0]
    points: set[ObjectId] = set()
    for f in fs:
        _check_compatible(base, f)
        for a in f.support:
            points.add(g.src[a])
            points.add(g.dst[a])
    return object_subset(g, points)


@dataclass(frozen=True)
class CornerAlgebra:
    """The corner chi_U * kG * chi_U identified with the algebra of G_U.

    Arrow ids are shared between the subgroupoid and the ambient groupoid,
    so the embedding is extension by zero and compression is restriction
    after cutting by chi_U on both sides.
    """

    groupoid: FiniteGroupoid
    ring: Ring
    points: tuple[ObjectId, ...]
    subgroupoid: FiniteGroupoid
    report: ValidationReport

    @property
    def corner_unit(self) -> AlgebraElement:
        return char_of_objects(self.groupoid, self.points, self.ring)

    def embed(self, f: AlgebraElement) -> AlgebraElement:
        if f.groupoid != self.subgroupoid:
            raise ValueError("element does not live on the restricted groupoid")
        return algebra_element(self.groupoid, self.ring, dict(f.coeffs))

    def compress(self, f: AlgebraElement) -> AlgebraElement:
        u = self.corner_unit
        cut = convolve(convolve(u, f), u)
        return algebra_element(self.subgroupoid, self.ring, dict(cut.coeffs))


def corner_algebra(g: FiniteGroupoid, points: Iterable[ObjectId], ring: Ring) -> CornerAlgebra:
    """Cut the corner at a compact open object set and certify it equals kG_U."""
    objs = object_subset(g, points)
    sub = restrict_groupoid(g, objs)
    unit = char_of_objects(g, objs, ring)
    failures: list[Failure] = []
    sub_arrows = set(sub.arrows)

    for a in g.arrows:
        cut = convolve(convolve(unit, char_fn(g, Bisection.of(g, [a]), ring)), unit)
        if any(b not in sub_arrows for b in cut.support):
            failures.append(Failure("corner support", f"chi_U*chi_[{a}]*chi_U leaks outside G_U"))
        expected = {a: ring.one} if a in sub_arrows else {}
        if dict(cut.coeffs) != expected:
            failures.append(Failure("corner compression", f"chi_U*chi_[{a}]*chi_U is not as cut"))

    for a in sub.arrows:
        for b in sub.arrows:
            inner = convolve(
                char_fn(sub, Bisection.of(sub, [a]), ring),
                char_fn(sub, Bisection.of(sub, [b]), ring),
            )
            outer = convolve(
                char_fn(g, Bisection.of(g, [a]), ring),
                char_fn(g, Bisection.of(g, [b]), ring),
            )
            if dict(inner.coeffs) != dict(outer.coeffs):
                failures.append(Failure("corner table", f"products of [{a}],[{b}] disagree"))

    return CornerAlgebra(g, ring, objs, sub, ValidationReport("corner", tuple(failures)))


@dataclass(frozen=True)
class StructureTable:
    """Products of all arrow singletons; each cell is an arrow id or None,
    keyed (a, b) in row-major declaration order of the arrows."""

    groupoid: FiniteGroupoid
    ring: Ring
    cells: Mapping[tuple[ArrowId, ArrowId], ArrowId | None]


def multiplication_table(g: FiniteGroupoid, ring: Ring, guard: int = TABLE_GUARD) -> StructureTable:
    """Structure constants chi_[a] * chi_[b] over all arrow singletons."""
    if len(g.arrows) > guard:
        raise SizeGuardError(f"structure table is guarded at {guard} arrows, got {len(g.arrows)}")
    singleton = {a: algebra_element(g, ring, {a: 1}) for a in g.arrows}
    cells: dict[tuple[ArrowId, ArrowId], ArrowId | None] = dict.fromkeys(product(g.arrows, repeat=2))
    for a, b in g.composable_pairs():
        (cells[(a, b)],) = convolve(singleton[a], singleton[b]).coeffs
    return StructureTable(g, ring, cells)
