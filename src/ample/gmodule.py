"""Unitary right modules over a groupoid convolution algebra.

A module is presented on a free carrier of finite rank: row vectors act on
the right through one matrix per arrow (the action of that arrow's
singleton characteristic function); a general algebra element acts by
linear extension over its support.  The unit arrows act as orthogonal
idempotents summing to the identity, which is exactly unitarity over a
compact unit space, and every arrow restricts to an isomorphism between
the images of its endpoint idempotents (witnessed by the inverse arrow).

Homomorphisms are matrices intertwining the two actions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .algebra import AlgebraElement
from .groupoid import ArrowId, FiniteGroupoid
from .rings import (
    Matrix,
    Ring,
    Scalar,
    canonical_rows,
    kernel_basis,
    matrix_inverse,
    vec,
    vec_mat,
)
from .validation import Failure, ValidationReport


@dataclass(frozen=True)
class GModule:
    groupoid: FiniteGroupoid
    ring: Ring
    rank: int
    action: Mapping[ArrowId, Matrix]

    def __post_init__(self) -> None:
        if set(self.action) != set(self.groupoid.arrows):
            raise ValueError("action must assign a matrix to exactly the arrow set")
        for a, m in self.action.items():
            if m.ring != self.ring:
                raise ValueError(f"ring mismatch in action matrix of {a!r}")
            if (m.rows, m.cols) != (self.rank, self.rank):
                raise ValueError(f"action matrix of {a!r} is not {self.rank}x{self.rank}")

    def unit_action(self, x: Any) -> Matrix:
        return self.action[self.groupoid.unit[x]]


@dataclass(frozen=True)
class GModuleHom:
    source: GModule
    target: GModule
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.source.groupoid != self.target.groupoid:
            raise ValueError("homomorphism endpoints live over different groupoids")
        if self.source.ring != self.target.ring:
            raise ValueError("homomorphism endpoints live over different rings")
        if (self.matrix.rows, self.matrix.cols) != (self.source.rank, self.target.rank):
            raise ValueError(
                f"hom matrix must be {self.source.rank}x{self.target.rank},"
                f" got {self.matrix.rows}x{self.matrix.cols}"
            )


def action_of(m: GModule, f: AlgebraElement) -> Matrix:
    """The matrix of a general algebra element, by linear extension."""
    if f.groupoid != m.groupoid:
        raise ValueError("algebra element lives over a different groupoid")
    if f.ring != m.ring:
        raise ValueError(f"ring mismatch: {f.ring.name} vs {m.ring.name}")
    total = Matrix.zeros(m.ring, m.rank, m.rank)
    for a, c in f.coeffs.items():
        total = total + m.action[a].scaled(c)
    return total


def act(m: GModule, v: Sequence[Scalar], f: AlgebraElement) -> tuple[Scalar, ...]:
    """Right action v * f on a row vector."""
    if len(v) != m.rank:
        raise ValueError(f"vector length {len(v)} does not match module rank {m.rank}")
    return vec_mat(vec(m.ring, v), action_of(m, f))


def validate_module(m: GModule) -> ValidationReport:
    """Check unit, support, multiplicativity and invertibility laws."""
    failures: list[Failure] = []
    g, ring = m.groupoid, m.ring
    ident = Matrix.identity(ring, m.rank)

    units = {x: m.unit_action(x) for x in g.objects}
    total = Matrix.zeros(ring, m.rank, m.rank)
    for x in g.objects:
        e = units[x]
        if e @ e != e:
            failures.append(Failure("unit idempotent", f"action of u({x!r}) is not idempotent"))
        total = total + e
    if total != ident:
        failures.append(Failure("unit completeness", "unit actions do not sum to the identity"))
    for i, x in enumerate(g.objects):
        for y in g.objects[i + 1:]:
            zero = Matrix.zeros(ring, m.rank, m.rank)
            if units[x] @ units[y] != zero or units[y] @ units[x] != zero:
                failures.append(Failure("unit orthogonality", f"u({x!r}) and u({y!r}) are not orthogonal"))

    for a in g.arrows:
        framed = units[g.dst[a]] @ m.action[a] @ units[g.src[a]]
        if framed != m.action[a]:
            failures.append(Failure("support", f"action of {a!r} is not framed by its endpoint units"))

    for a, b in g.composable_pairs():
        ab = g.compose.get((a, b))
        if ab is None:
            continue  # a groupoid defect, reported by validate_groupoid
        if m.action[a] @ m.action[b] != m.action[ab]:
            failures.append(Failure("multiplicativity", f"A[{a!r}] A[{b!r}] != A[{(ab)!r}]"))

    for a in g.arrows:
        back = m.action[a] @ m.action[g.inverse[a]]
        if back != units[g.dst[a]]:
            failures.append(Failure("invertibility", f"{a!r} is not inverted by {g.inverse[a]!r}"))

    return ValidationReport("module", tuple(failures))


def validate_hom(h: GModuleHom) -> ValidationReport:
    failures: list[Failure] = []
    for a in h.source.groupoid.arrows:
        if h.source.action[a] @ h.matrix != h.matrix @ h.target.action[a]:
            failures.append(Failure("intertwining", f"square fails at arrow {a!r}"))
    return ValidationReport("module homomorphism", tuple(failures))


def identity_hom(m: GModule) -> GModuleHom:
    return GModuleHom(m, m, Matrix.identity(m.ring, m.rank))


def zero_hom(m: GModule, n: GModule) -> GModuleHom:
    return GModuleHom(m, n, Matrix.zeros(m.ring, m.rank, n.rank))


def compose_homs(f: GModuleHom, g: GModuleHom) -> GModuleHom:
    """First f, then g (row vectors: v @ f.matrix @ g.matrix)."""
    if f.target != g.source:
        raise ValueError("homomorphisms do not compose: target != source")
    return GModuleHom(f.source, g.target, f.matrix @ g.matrix)


def is_isomorphism(h: GModuleHom) -> bool:
    return validate_hom(h).ok and matrix_inverse(h.matrix) is not None


def direct_sum(m1: GModule, m2: GModule) -> GModule:
    if m1.groupoid != m2.groupoid or m1.ring != m2.ring:
        raise ValueError("direct sum needs a common groupoid and ring")
    from .rings import block_diagonal

    action = {
        a: block_diagonal(m1.ring, [m1.action[a], m2.action[a]]) for a in m1.groupoid.arrows
    }
    return GModule(m1.groupoid, m1.ring, m1.rank + m2.rank, action)


def regular_module(g: FiniteGroupoid, ring: Ring) -> GModule:
    """The algebra acting on itself: basis = arrows, action by right composition."""
    n = len(g.arrows)
    action: dict[ArrowId, Matrix] = {}
    for b in g.arrows:
        rows = []
        for a in g.arrows:
            row = [ring.zero] * n
            if g.composable(a, b):
                row[g.arrow_index[g.compose[(a, b)]]] = ring.one
            rows.append(tuple(row))
        action[b] = Matrix(ring, n, n, tuple(rows))
    return GModule(g, ring, n, action)


# -- homomorphism spaces ----------------------------------------------------


def hom_space_basis(m1: GModule, m2: GModule) -> list[Matrix]:
    """A basis of the intertwiner space Hom(m1, m2), found by exact elimination.

    Unknown matrices are flattened row-major; one linear constraint block per
    arrow encodes A1[g] H = H A2[g].
    """
    if m1.groupoid != m2.groupoid or m1.ring != m2.ring:
        raise ValueError("hom space needs a common groupoid and ring")
    ring = m1.ring
    r1, r2 = m1.rank, m2.rank
    unknowns = r1 * r2
    arrows = m1.groupoid.arrows
    cols = len(arrows) * r1 * r2
    if unknowns == 0:
        return []
    grid = [[ring.zero] * cols for _ in range(unknowns)]
    for gi, a in enumerate(arrows):
        left, right = m1.action[a].entries, m2.action[a].entries
        for i in range(r1):
            for j in range(r2):
                col = (gi * r1 + i) * r2 + j
                for k, x in enumerate(left[i]):
                    if x:
                        grid[k * r2 + j][col] += x
                for l in range(r2):
                    if right[l][j]:
                        grid[i * r2 + l][col] -= right[l][j]
    constraint = Matrix(ring, unknowns, cols, canonical_rows(ring, grid))
    basis = kernel_basis(constraint)
    out = []
    for row in basis.entries:
        entries = tuple(tuple(row[i * r2 + j] for j in range(r2)) for i in range(r1))
        out.append(Matrix(ring, r1, r2, entries))
    return out


def hom_space_dim(m1: GModule, m2: GModule) -> int:
    if m1.rank == 0 or m2.rank == 0:
        return 0
    return len(hom_space_basis(m1, m2))


def random_hom(m1: GModule, m2: GModule, rng: Any) -> GModuleHom:
    """A random element of the intertwiner space (zero if the space is trivial)."""
    basis = hom_space_basis(m1, m2)
    total = Matrix.zeros(m1.ring, m1.rank, m2.rank)
    for b in basis:
        c = _small_scalar(m1.ring, rng)
        total = total + b.scaled(c)
    return GModuleHom(m1, m2, total)


def _small_scalar(ring: Ring, rng: Any) -> Scalar:
    if ring.kind == "mod":
        return ring.coerce(rng.randrange(ring.modulus))
    return ring.coerce(rng.randint(-3, 3))
