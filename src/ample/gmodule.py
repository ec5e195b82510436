"""Unitary right modules over a groupoid convolution algebra.

A module is presented on a free carrier of finite rank: row vectors act on
the right through one matrix per arrow (the action of that arrow's
singleton characteristic function); a general algebra element acts by
linear extension over its support.  The unit arrows act as orthogonal
idempotents summing to the identity, which is exactly unitarity over a
compact unit space, and every arrow restricts to an isomorphism between
the images of its endpoint idempotents (witnessed by the inverse arrow).

Homomorphisms are matrices intertwining the two actions.  Over a
connected groupoid a module is fixed by its stalk at one base object x and
the action of the isotropy group K_x there, so Hom(M1, M2) is computed as
Hom_{K_x}(M1·e_x, M2·e_x) on each component's base stalks and extended
along one tree arrow per object (``hom_space_basis``).  A module that
fails the identities this needs, or a groupoid that fails
``validate_groupoid``, takes one dense system over every arrow instead,
which gives the same basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Sequence

from .algebra import AlgebraElement
from .groupoid import ArrowId, FiniteGroupoid, ObjectId
from .rings import (
    Matrix,
    Ring,
    Scalar,
    express_in_basis,
    image_basis,
    intertwiner_constraints,
    kernel_basis,
    matrix_inverse,
    split_blocks,
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

    @cached_property
    def isotropy_frame(self) -> "IsotropyFrame | None":
        """The module on its base stalks, or None when the isotropy
        reduction does not apply (see ``_isotropy_frame``)."""
        return _isotropy_frame(self)


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


class IsotropyFrame(NamedTuple):
    """A module read off its base stalks, for ``hom_space_basis``.

    For each base object x of the groupoid's ``isotropy_plan`` the unit
    idempotent factors as E_x = Q·P with P·Q = I, the rows of P being a basis
    (echelon over a field, Hermite over Z) of the base stalk.  ``dims[x]`` is
    the rank of that stalk and ``loops[x]`` holds R[k] = P·A[k]·Q for the
    non-unit isotropy arrows k at x, in declaration order.  For every object
    y with tree arrow t_y, ``lift[y]`` is A[t_y]·Q and ``drop[y]`` is
    P·A[t_y⁻¹].
    """

    dims: Mapping[ObjectId, int]
    loops: Mapping[ObjectId, tuple[Matrix, ...]]
    lift: Mapping[ObjectId, Matrix]
    drop: Mapping[ObjectId, Matrix]


def _isotropy_frame(m: GModule) -> IsotropyFrame | None:
    """The frame of ``m`` on its base stalks, or None when the reduction's
    identities fail.

    Over a groupoid that passes ``validate_groupoid``, the identities are:
    the unit actions E_y sum to the identity; the base stalk ranks, counted
    once per object of their component, sum to the rank; the isotropy arrows
    at each base multiply (A[k]·A[l] = A[kl]); and every arrow a: y -> z
    factors as A[a] = A[t_z]·A[loop a]·A[t_y⁻¹].  Together they imply every
    law ``validate_module`` checks.  Factoring the units gives
    E_y = A[t_y]·A[t_y⁻¹] with A[t_y] = A[t_y]·E_x, so rank E_y <= rank E_x;
    as the E_y sum to the identity, the rank count forces equality and a
    direct sum of their images, so the E_y are orthogonal idempotents and
    A[t_y⁻¹]·A[t_y] = E_x.  The tree arrows are then isomorphisms between
    the stalks, and support, products and inverses follow from the group
    law at the base.  Each identity is needed: the tests hold a module that
    fails only that one.
    """
    g, ring, action = m.groupoid, m.ring, m.action
    plan = g.isotropy_plan
    if plan is None:
        return None
    units = {x: m.unit_action(x) for x in g.objects}
    total = Matrix.zeros(ring, m.rank, m.rank)
    for e in units.values():
        total = total + e
    if total != Matrix.identity(ring, m.rank):
        return None
    for comp in plan.components:
        loops = g.hom_set(comp[0], comp[0])
        for k in loops:
            if any(action[k] @ action[l] != action[g.compose[(k, l)]] for l in loops):
                return None
    heads: dict[tuple[ArrowId, ArrowId], Matrix] = {}  # A[t_z]·A[k], shared by all sources
    for a in g.arrows:
        key = (plan.tree[g.dst[a]], plan.loop[a])
        if key not in heads:
            heads[key] = action[key[0]] @ action[key[1]]
        if heads[key] @ action[g.inverse[plan.tree[g.src[a]]]] != action[a]:
            return None

    dims: dict[ObjectId, int] = {}
    loop_reps: dict[ObjectId, tuple[Matrix, ...]] = {}
    lift: dict[ObjectId, Matrix] = {}
    drop: dict[ObjectId, Matrix] = {}
    for comp in plan.components:
        base = comp[0]
        p = image_basis(units[base])
        # each row of E_x lies in the row space (lattice) that p spans
        coords = tuple(express_in_basis(p, row) for row in units[base].entries)
        q = Matrix(ring, m.rank, p.rows, coords)  # type: ignore[arg-type]
        dims[base] = p.rows
        loop_reps[base] = tuple(
            p @ action[k] @ q for k in g.hom_set(base, base) if k != g.unit[base]
        )
        for y in comp:
            lift[y] = action[plan.tree[y]] @ q
            drop[y] = p @ action[g.inverse[plan.tree[y]]]
    if sum(len(comp) * dims[comp[0]] for comp in plan.components) != m.rank:
        return None
    return IsotropyFrame(dims, loop_reps, lift, drop)


def _commutant(
    ring: Ring, r1: int, r2: int, pairs: Sequence[tuple[Matrix, Matrix]]
) -> tuple[tuple[Scalar, ...], ...]:
    """Echelon basis of {X : L·X = X·R for every pair}, X flattened row-major."""
    if not pairs:  # no constraint: every X, in the basis kernel_basis would give
        return Matrix.identity(ring, r1 * r2).entries
    equations = [(left, 0, 0, right) for left, right in pairs]
    return kernel_basis(intertwiner_constraints(ring, [(r1, r2)], equations)).entries


def _base_commutants(
    m1: GModule, m2: GModule
) -> list[tuple[tuple[ObjectId, ...], int, int, tuple[tuple[Scalar, ...], ...]]] | None:
    """Per component: its objects, the two base stalk ranks and a basis of
    the intertwiners of the base isotropy actions; None when either module
    declines the reduction."""
    f1, f2 = m1.isotropy_frame, m2.isotropy_frame
    if f1 is None or f2 is None:
        return None
    out = []
    for comp in m1.groupoid.isotropy_plan.components:
        base = comp[0]
        d1, d2 = f1.dims[base], f2.dims[base]
        pairs = tuple(zip(f1.loops[base], f2.loops[base]))
        out.append((comp, d1, d2, _commutant(m1.ring, d1, d2, pairs)))
    return out


def _check_common(m1: GModule, m2: GModule) -> None:
    if m1.groupoid != m2.groupoid or m1.ring != m2.ring:
        raise ValueError("hom space needs a common groupoid and ring")


def hom_space_basis(m1: GModule, m2: GModule) -> list[Matrix]:
    """A basis of the intertwiner space Hom(m1, m2), found by exact elimination.

    The basis is the canonical one of the space: the reduced echelon form of
    the flattened (row-major) intertwiners over a field, their Hermite form
    over Z.  It is computed on the base stalks: with E_x = Q·P, an
    intertwiner H restricts to X = P1·H·Q2, which commutes with the isotropy
    actions R1[k]·X = X·R2[k] at the base, and every such X extends to the
    intertwiner H = Σ_y A1[t_y]·Q1·X·P2·A2[t_y⁻¹] (see ``IsotropyFrame``).
    Only the non-unit isotropy arrows give equations, so for a pair
    groupoid nothing is eliminated but the spanning intertwiners.

    When the groupoid fails ``validate_groupoid`` or either module fails
    the identities of ``isotropy_frame``, one dense system with one block
    of equations A1[g]·H = H·A2[g] per arrow gives the same basis.
    """
    _check_common(m1, m2)
    ring, r1, r2 = m1.ring, m1.rank, m2.rank
    if r1 * r2 == 0:
        return []
    commutants = _base_commutants(m1, m2)
    if commutants is None:
        pairs = [(m1.action[a], m2.action[a]) for a in m1.groupoid.arrows]
        rows = _commutant(ring, r1, r2, pairs)
    else:
        f1, f2 = m1.isotropy_frame, m2.isotropy_frame
        spanning = []
        for comp, d1, d2, basis in commutants:
            for flat in basis:
                x = split_blocks(ring, [(d1, d2)], flat)[0]
                h = Matrix.zeros(ring, r1, r2)
                for y in comp:
                    h = h + f1.lift[y] @ x @ f2.drop[y]
                spanning.append(tuple(v for row in h.entries for v in row))
        rows = image_basis(Matrix(ring, len(spanning), r1 * r2, tuple(spanning))).entries
    return [split_blocks(ring, [(r1, r2)], row)[0] for row in rows]


def hom_space_dim(m1: GModule, m2: GModule) -> int:
    """The dimension (rank over Z) of Hom(m1, m2); on the reduced path it is
    read off the base commutants without building any intertwiner."""
    _check_common(m1, m2)
    if m1.rank == 0 or m2.rank == 0:
        return 0
    commutants = _base_commutants(m1, m2)
    if commutants is None:
        return len(hom_space_basis(m1, m2))
    return sum(len(basis) for _, _, _, basis in commutants)


def random_hom(m1: GModule, m2: GModule, rng: Any) -> GModuleHom:
    """A random element of the intertwiner space (zero if the space is trivial)."""
    basis = hom_space_basis(m1, m2)
    total = Matrix.zeros(m1.ring, m1.rank, m2.rank)
    for b in basis:
        c = _small_scalar(m1.ring, rng)
        total = total + b.scaled(c)
    return GModuleHom(m1, m2, total)


def _small_scalar(ring: Ring, rng: Any) -> Scalar:
    """The seeded coefficient source of ``random_hom`` and
    ``gsheaf.random_sheaf_hom``: uniform over Z/m, in -3..3 over Q and Z."""
    if ring.kind == "mod":
        return ring.coerce(rng.randrange(ring.modulus))
    return ring.coerce(rng.randint(-3, 3))
