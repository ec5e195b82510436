"""Unitary right modules over a groupoid convolution algebra.

A module is presented on a free carrier of finite rank: row vectors act on
the right through one matrix per arrow (the action of that arrow's
singleton characteristic function); a general algebra element acts by
linear extension over its support.  The unit arrows act as orthogonal
idempotents summing to the identity, which is exactly unitarity over a
compact unit space, and every arrow restricts to an isomorphism between
the images of its endpoint idempotents (witnessed by the inverse arrow).

A module is a functor out of the groupoid, so it is fixed by its values on
generators: the isotropy group K_x at one base object x per connected
component and one tree arrow per object.  ``validate_module`` checks the
laws there only, and homomorphisms, the matrices intertwining two actions,
are computed as Hom_{K_x}(M1·e_x, M2·e_x) on each component's base stalks
and extended along the tree arrows (``hom_space_basis``), as are sheaf
morphism spaces.  A module that fails validation has no hom space: the hom
functions raise ValueError naming the failed law.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .groupoid import ArrowId, FiniteGroupoid, ObjectId, validate_groupoid
from .rings import (
    Matrix,
    Ring,
    block_diagonal,
    coordinates,
    flatten_rows,
    image_basis,
    intertwiner_constraints,
    kernel_basis,
    matrix_inverse,
    unflatten_rows,
)
from .validation import Failure, ValidationReport


@dataclass(frozen=True)
class GModule:
    groupoid: FiniteGroupoid
    ring: Ring
    rank: int
    action: Mapping[ArrowId, Matrix]

    def __post_init__(self) -> None:
        ring, n = self.ring, self.rank
        if self.action.keys() != self.groupoid.arrow_index.keys():
            raise ValueError("action must assign a matrix to exactly the arrow set")
        for a, m in self.action.items():
            if m.ring is not ring and m.ring != ring:
                raise ValueError(f"ring mismatch in action matrix of {a!r}")
            if m.rows != n or m.cols != n:
                raise ValueError(f"action matrix of {a!r} is not {n}x{n}")

    def unit_action(self, x: Any) -> Matrix:
        return self.action[self.groupoid.unit[x]]

    @cached_property
    def isotropy_frame(self) -> "IsotropyFrame":
        """The module on its base stalks; raises ValueError naming the first
        law ``validate_module`` finds broken."""
        return _isotropy_frame(validate_module(self), self.groupoid, self.action)


@dataclass(frozen=True)
class GModuleHom:
    source: GModule
    target: GModule
    matrix: Matrix

    def __post_init__(self) -> None:
        source, target, m = self.source, self.target, self.matrix
        g, ring = source.groupoid, source.ring
        if g is not target.groupoid and g != target.groupoid:
            raise ValueError("homomorphism endpoints live over different groupoids")
        if ring is not target.ring and ring != target.ring:
            raise ValueError("homomorphism endpoints live over different rings")
        if m.ring is not ring and m.ring != ring:
            raise ValueError(f"ring mismatch in hom matrix: {m.ring.name} vs {ring.name}")
        if m.rows != source.rank or m.cols != target.rank:
            raise ValueError(f"hom matrix must be {source.rank}x{target.rank}, got {m.rows}x{m.cols}")


def validate_module(m: GModule) -> ValidationReport:
    """Check the unit laws and the action on generators.

    The unit actions must sum to the identity and satisfy E_x·E_y = 0 for
    x declared before y, and the action must pass ``_generator_failures``.
    Together these imply orthogonality both ways, support, multiplicativity
    on every composable pair and invertibility (see ``_isotropy_frame``).
    No check eliminates, so any ring with exact arithmetic works.
    """
    failures: list[Failure] = []
    g, ring = m.groupoid, m.ring
    units = {x: m.unit_action(x) for x in g.objects}
    total = Matrix.zeros(ring, m.rank, m.rank)
    for e in units.values():
        total = total + e
    if total != Matrix.identity(ring, m.rank):
        failures.append(Failure("unit completeness", "unit actions do not sum to the identity"))
    for i, x in enumerate(g.objects):
        for y in g.objects[i + 1:]:
            if not (units[x] @ units[y]).is_zero:
                failures.append(Failure("unit orthogonality", f"u({x!r}) and u({y!r}) are not orthogonal"))
    failures.extend(_generator_failures(g, m.action, "A"))
    return ValidationReport("module", tuple(failures))


def _generator_failures(
    g: FiniteGroupoid, family: Mapping[ArrowId, Matrix], name: str
) -> list[Failure]:
    """The functor laws of one matrix per arrow (a module's A, a sheaf's B)
    on the generators of ``g.isotropy_plan``, law by law in declaration order:

    - isotropy group law: X[k]·X[l] = X[kl] for k, l at each base object x;
    - factorisation: X[a] = X[t_z]·X[loop a]·X[t_y⁻¹] for every a: y -> z;
    - tree inverse: X[t_y⁻¹]·X[t_y] = X[u_x] for every object y but a base.

    Witnesses name the matrices as ``name``[arrow].  A groupoid that fails
    ``validate_groupoid`` has no plan and gives one ``groupoid`` failure
    with that report's first failure as its witness.
    """
    plan = g.isotropy_plan
    if plan is None:
        return [Failure("groupoid", str(validate_groupoid(g).first()))]
    failures: list[Failure] = []
    for comp in plan.components:
        loops = g.hom_set(comp[0], comp[0])
        for k in loops:
            for l in loops:
                kl = g.compose[(k, l)]
                if family[k] @ family[l] != family[kl]:
                    failures.append(
                        Failure("isotropy group law", f"{name}[{k!r}] {name}[{l!r}] != {name}[{kl!r}]")
                    )
    heads: dict[tuple[ArrowId, ArrowId], Matrix] = {}  # X[t_z]·X[k], shared by all sources
    for a in g.arrows:
        key = (plan.tree[g.dst[a]], plan.loop[a])
        back = g.inverse[plan.tree[g.src[a]]]
        if key not in heads:
            heads[key] = family[key[0]] @ family[key[1]]
        if heads[key] @ family[back] != family[a]:
            failures.append(Failure(
                "factorisation", f"{name}[{a!r}] != {name}[{key[0]!r}] {name}[{key[1]!r}] {name}[{back!r}]"
            ))
    for y in g.objects:
        t = plan.tree[y]
        if t == g.unit[y]:
            continue  # a base object
        back, u = g.inverse[t], g.unit[g.src[t]]
        if family[back] @ family[t] != family[u]:
            failures.append(Failure("tree inverse", f"{name}[{back!r}] {name}[{t!r}] != {name}[{u!r}]"))
    return failures


def _unintertwined(
    g: FiniteGroupoid,
    left: Mapping[ArrowId, Matrix],
    maps: Mapping[ObjectId, Matrix],
    right: Mapping[ArrowId, Matrix],
) -> list[ArrowId]:
    """The arrows a: y -> z, in declaration order, with left[a]·maps[y] !=
    maps[z]·right[a]: the failed squares of a module hom (maps[y] = H) or
    of a sheaf morphism (maps[y] = φ_y)."""
    src, dst = g.src, g.dst
    return [a for a in g.arrows if left[a] @ maps[src[a]] != maps[dst[a]] @ right[a]]


def validate_hom(h: GModuleHom) -> ValidationReport:
    g = h.source.groupoid
    bad = _unintertwined(g, h.source.action, dict.fromkeys(g.objects, h.matrix), h.target.action)
    failures = tuple(Failure("intertwining", f"square fails at arrow {a!r}") for a in bad)
    return ValidationReport("module homomorphism", failures)


def is_isomorphism(h: GModuleHom) -> ValidationReport:
    """``validate_hom``, then law "invertibility": the matrix has an inverse."""
    report = validate_hom(h)
    if report.ok and matrix_inverse(h.matrix) is None:
        return ValidationReport(report.subject, (Failure("invertibility", "singular matrix"),))
    return report


def direct_sum(m1: GModule, m2: GModule) -> GModule:
    if m1.groupoid != m2.groupoid or m1.ring != m2.ring:
        raise ValueError("direct sum needs a common groupoid and ring")
    action = {
        a: block_diagonal(m1.ring, [m1.action[a], m2.action[a]]) for a in m1.groupoid.arrows
    }
    return GModule(m1.groupoid, m1.ring, m1.rank + m2.rank, action)


def regular_module(g: FiniteGroupoid, ring: Ring) -> GModule:
    """The algebra acting on itself: basis = arrows, action by right composition."""
    n = len(g.arrows)
    action: dict[ArrowId, Matrix] = {}
    for b in g.arrows:
        # row a holds a 1 at a·b for the arrows a that start where b ends, and is zero otherwise
        rows = dict.fromkeys(g.arrows, (0,) * n)
        for a in g.arrows_with_src(g.dst[b]):
            row = [0] * n
            row[g.arrow_index[g.compose[(a, b)]]] = 1
            rows[a] = tuple(row)
        action[b] = Matrix.from_ints(ring, list(rows.values()), n)
    return GModule(g, ring, n, action)


# -- homomorphism spaces ----------------------------------------------------


class IsotropyFrame(NamedTuple):
    """A module, or a sheaf (A: its transports), read off its base stalks.

    For each base object x of the groupoid's ``isotropy_plan`` the unit
    idempotent factors as E_x = Q·P with P·Q = I, the rows of P being a basis
    (echelon over a field, Hermite over Z) of the base stalk.  ``dims[x]`` is
    the rank of that stalk and ``loops[x]`` holds R[k] = P·A[k]·Q for the
    non-unit isotropy arrows k at x, in declaration order.  For every object
    y with tree arrow t_y, ``lift[y]`` is A[t_y]·Q and ``drop[y]`` is
    P·A[t_y⁻¹].  A sheaf's units are identities, so there P = Q = I.
    """

    dims: Mapping[ObjectId, int]
    loops: Mapping[ObjectId, tuple[Matrix, ...]]
    lift: Mapping[ObjectId, Matrix]
    drop: Mapping[ObjectId, Matrix]


def _isotropy_frame(
    report: ValidationReport, g: FiniteGroupoid, family: Mapping[ArrowId, Matrix]
) -> IsotropyFrame:
    """The frame of a module's action or a sheaf's transports, given the
    report of its validator; raises ValueError naming its first failure.

    Why the generator checks suffice: write E_y for the unit action at y, x
    for the base of its component and k_a for loop a.  The factorisation of
    u_y, t_y and t_y⁻¹ (each with loop u_x) gives E_y = A[t_y]·E_x·A[t_y⁻¹],
    A[t_y] = A[t_y]·E_x and A[t_y⁻¹] = E_x·A[t_y⁻¹], and the group law at the
    base gives A[k] = E_x·A[k] = A[k]·E_x.  For a: y -> z and b: w -> y,
    loop(ab) = k_a·k_b, so with the tree inverse A[t_y⁻¹]·A[t_y] = E_x
    A[a]·A[b] = A[t_z]·A[k_a]·E_x·A[k_b]·A[t_w⁻¹] = A[ab]: multiplicativity,
    and with b = a⁻¹ invertibility; support is multiplicativity by the
    endpoint units.  The same identities make each unit idempotent:
    E_y·E_y = A[t_y]·E_x·E_x·E_x·A[t_y⁻¹] = E_y.  Orthogonality the other
    way, E_y·E_w = 0 for w before y, follows by induction on y: from
    E_y = E_y·ΣE_v, the sum of E_y·E_v over v before y is 0, and multiplying
    it on the right by E_w leaves E_y·E_w.  Orthogonality and the tree
    inverses stand in for a rank count, so no check needs elimination.
    Each identity is needed: the tests hold, for each, a non-module that
    fails only that one.
    """
    if not report.ok:
        raise ValueError(f"{report.subject} fails {report.first()}")
    plan = g.isotropy_plan
    dims: dict[ObjectId, int] = {}
    loop_reps: dict[ObjectId, tuple[Matrix, ...]] = {}
    lift: dict[ObjectId, Matrix] = {}
    drop: dict[ObjectId, Matrix] = {}
    for comp in plan.components:
        base = comp[0]
        unit = family[g.unit[base]]
        p = image_basis(unit)
        # each row of E_x lies in the row space (lattice) that p spans
        q = coordinates(p, unit)
        if q is None:
            raise RuntimeError(
                f"invariant broken: the rows of the unit action at {base!r} are not in the span of its image basis"
            )
        dims[base] = p.rows
        loop_reps[base] = tuple(
            p @ family[k] @ q for k in g.hom_set(base, base) if k != g.unit[base]
        )
        for y in comp:
            lift[y] = family[plan.tree[y]] @ q
            drop[y] = p @ family[g.inverse[plan.tree[y]]]
    return IsotropyFrame(dims, loop_reps, lift, drop)


def _commutant(ring: Ring, r1: int, r2: int, pairs: Sequence[tuple[Matrix, Matrix]]) -> Matrix:
    """Echelon basis of {X : L·X = X·R for every pair}, one X per row, flattened row-major."""
    if not pairs:  # no constraint: every X, in the basis kernel_basis would give
        return Matrix.identity(ring, r1 * r2)
    return kernel_basis(intertwiner_constraints(ring, r1, r2, pairs))


def _base_commutants(
    s1: Any, s2: Any, rank1: int, rank2: int
) -> list[tuple[tuple[ObjectId, ...], int, int, Matrix]]:
    """Per component of two modules, or two sheaves: its objects, the two base
    stalk ranks and a basis of the intertwiners of the base isotropy
    actions; empty when either rank is 0, and each nonzero side validated."""
    g, ring = s1.groupoid, s1.ring
    if g is not s2.groupoid and g != s2.groupoid or ring is not s2.ring and ring != s2.ring:
        raise ValueError("hom space needs a common groupoid and ring")
    f1, f2 = (s.isotropy_frame if rank else None for s, rank in ((s1, rank1), (s2, rank2)))
    if f1 is None or f2 is None:
        return []
    out = []
    for comp in g.isotropy_plan.components:
        base = comp[0]
        d1, d2 = f1.dims[base], f2.dims[base]
        pairs = tuple(zip(f1.loops[base], f2.loops[base]))
        out.append((comp, d1, d2, _commutant(ring, d1, d2, pairs)))
    return out


def _extended_commutants(s1: Any, s2: Any, rank1: int, rank2: int) -> Iterator[dict[ObjectId, Matrix]]:
    """Each basis element X of ``_base_commutants`` extended along the tree
    arrows: lift1[y]·X·drop2[y] on each object y of its component."""
    for comp, d1, d2, basis in _base_commutants(s1, s2, rank1, rank2):
        f1, f2 = s1.isotropy_frame, s2.isotropy_frame
        for (x,) in unflatten_rows(basis, [(d1, d2)]):
            yield {y: f1.lift[y] @ x @ f2.drop[y] for y in comp}


def hom_space_basis(m1: GModule, m2: GModule) -> list[Matrix]:
    """A basis of the intertwiner space Hom(m1, m2), found by exact elimination.

    The basis is the canonical one of the space: the reduced echelon form of
    the flattened (row-major) intertwiners over a field, their Hermite form
    over Z.  It is computed on the base stalks: with E_x = Q·P, an
    intertwiner H restricts to X = P1·H·Q2, which commutes with the isotropy
    actions R1[k]·X = X·R2[k] at the base, and every such X extends to the
    intertwiner H = Σ_y A1[t_y]·Q1·X·P2·A2[t_y⁻¹] (see ``IsotropyFrame``).
    Only the non-unit isotropy arrows give equations, so for a pair
    groupoid nothing is eliminated but the spanning intertwiners.  Raises
    ValueError naming the failed law when a module of nonzero rank is
    invalid.
    """
    ring, r1, r2 = m1.ring, m1.rank, m2.rank
    zero = Matrix.zeros(ring, r1, r2)
    spanning = [[sum(parts.values(), zero)] for parts in _extended_commutants(m1, m2, r1, r2)]
    if not spanning:
        return []
    basis = image_basis(flatten_rows(ring, r1 * r2, spanning))
    return [x for (x,) in unflatten_rows(basis, [(r1, r2)])]


def hom_space_dim(m1: GModule, m2: GModule) -> int:
    """The dimension (rank over Z) of Hom(m1, m2), read off the base
    commutants without building any intertwiner."""
    return sum(basis.rows for *_, basis in _base_commutants(m1, m2, m1.rank, m2.rank))


def random_hom(m1: GModule, m2: GModule, rng: Any) -> GModuleHom:
    """A random element of the intertwiner space (zero if the space is trivial)."""
    basis = hom_space_basis(m1, m2)
    total = Matrix.zeros(m1.ring, m1.rank, m2.rank)
    for b in basis:
        c = _small_scalar(m1.ring, rng)
        total = total + b.scaled(c)
    return GModuleHom(m1, m2, total)


def _small_scalar(ring: Ring, rng: Any) -> int:
    """The seeded coefficient source of ``random_hom`` and
    ``gsheaf.random_sheaf_hom``: uniform over Z/m, in -3..3 over Q and Z,
    as an ``int``, which ``Matrix.scaled`` takes as it is."""
    if ring.kind == "mod":
        return rng.randrange(ring.modulus)
    return rng.randint(-3, 3)
