"""Groupoid sheaves of modules over a finite ample groupoid.

Over a finite discrete unit space a sheaf is exactly its family of stalks
together with an invertible transport matrix per arrow, one free module per
object and, for each arrow g, a map from the stalk at the target of g to
the stalk at its source (the right action of g on germs).  Transports
compose contravariantly, (e g) h = e (gh), and units act as identities.

Like a module, a sheaf is a functor out of the groupoid, so
``validate_sheaf`` checks the transports on the same generators as
``validate_module``: the base isotropy groups and one tree arrow per object.

Morphisms are per-object matrices equivariant for the transports.  Their
space is solved as module hom spaces are: on the ``isotropy_frame``, the
commutant of the base isotropy transports extended along the tree arrows;
for an invalid sheaf ``sheaf_hom_basis`` raises ValueError naming the law.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from .gmodule import (
    IsotropyFrame,
    _extended_commutants,
    _generator_failures,
    _isotropy_frame,
    _small_scalar,
    _unintertwined,
)
from .groupoid import ArrowId, FiniteGroupoid, ObjectId
from .rings import (
    Matrix,
    Ring,
    block_diagonal,
    flatten_rows,
    image_basis,
    matrix_inverse,
    unflatten_rows,
)
from .validation import Failure, ValidationReport


@dataclass(frozen=True)
class GSheaf:
    groupoid: FiniteGroupoid
    ring: Ring
    stalk_rank: Mapping[ObjectId, int]
    transport: Mapping[ArrowId, Matrix]

    def __post_init__(self) -> None:
        g, ring, ranks = self.groupoid, self.ring, self.stalk_rank
        if ranks.keys() != g.object_index.keys():
            raise ValueError("stalk ranks must cover exactly the object set")
        if any(n < 0 for n in ranks.values()):
            raise ValueError("stalk ranks must be non-negative")
        if self.transport.keys() != g.arrow_index.keys():
            raise ValueError("transport must assign a matrix to exactly the arrow set")
        src, dst = g.src, g.dst
        for a, m in self.transport.items():
            if m.ring is not ring and m.ring != ring:
                raise ValueError(f"ring mismatch in transport of {a!r}")
            rows, cols = ranks[dst[a]], ranks[src[a]]
            if m.rows != rows or m.cols != cols:
                raise ValueError(f"transport of {a!r} must be {rows}x{cols}")

    @property
    def total_rank(self) -> int:
        return sum(self.stalk_rank[x] for x in self.groupoid.objects)

    @cached_property
    def isotropy_frame(self) -> IsotropyFrame:
        """The sheaf on its base stalks; raises ValueError naming the first
        law ``validate_sheaf`` finds broken."""
        return _isotropy_frame(validate_sheaf(self), self.groupoid, self.transport)


@dataclass(frozen=True)
class GSheafMor:
    """Per-object components, stalk at x of the source -> stalk at x of the
    target.  ``inverse`` is computed on first use and kept, so the check
    that a morphism is invertible and the inverse it finds are one
    elimination per component."""

    source: GSheaf
    target: GSheaf
    maps: Mapping[ObjectId, Matrix]

    def __post_init__(self) -> None:
        source, target = self.source, self.target
        g, ring = source.groupoid, source.ring
        if g is not target.groupoid and g != target.groupoid:
            raise ValueError("sheaf morphism endpoints live over different groupoids")
        if ring is not target.ring and ring != target.ring:
            raise ValueError("sheaf morphism endpoints live over different rings")
        if self.maps.keys() != g.object_index.keys():
            raise ValueError("morphism must assign a matrix to exactly the object set")
        rows_at, cols_at = source.stalk_rank, target.stalk_rank
        for x, m in self.maps.items():
            if m.ring is not ring and m.ring != ring:
                raise ValueError(f"ring mismatch in component at {x!r}: {m.ring.name} vs {ring.name}")
            rows, cols = rows_at[x], cols_at[x]
            if m.rows != rows or m.cols != cols:
                raise ValueError(f"component at {x!r} must be {rows}x{cols}")

    @cached_property
    def inverse(self) -> "GSheafMor | None":
        """The componentwise inverse, target -> source, or None when some
        component is not square or not invertible (over Z: not unimodular)."""
        inverted = {}
        for x in self.source.groupoid.objects:
            inv = matrix_inverse(self.maps[x])
            if inv is None:
                return None
            inverted[x] = inv
        return GSheafMor(self.target, self.source, inverted)


def validate_sheaf(e: GSheaf) -> ValidationReport:
    """Check that unit transports are identities and that the transports
    pass the generator checks modules use (``gmodule._generator_failures``);
    together these imply composition on every composable pair and
    invertibility, by the argument of ``gmodule._isotropy_frame``."""
    g = e.groupoid
    failures = [
        Failure("unit transport", f"transport of u({x!r}) is not the identity")
        for x in g.objects
        if not e.transport[g.unit[x]].is_identity
    ]
    failures.extend(_generator_failures(g, e.transport, "B"))
    return ValidationReport("sheaf", tuple(failures))


def constant_sheaf(g: FiniteGroupoid, ring: Ring, rank: int) -> GSheaf:
    """All stalks equal, all transports the identity."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    ident = Matrix.identity(ring, rank)
    return GSheaf(
        g,
        ring,
        {x: rank for x in g.objects},
        {a: ident for a in g.arrows},
    )


def validate_sheaf_morphism(phi: GSheafMor) -> ValidationReport:
    bad = _unintertwined(phi.source.groupoid, phi.source.transport, phi.maps, phi.target.transport)
    failures = tuple(Failure("equivariance", f"square fails at arrow {a!r}") for a in bad)
    return ValidationReport("sheaf morphism", failures)


def compose_sheaf_mors(phi: GSheafMor, psi: GSheafMor) -> GSheafMor:
    """First phi, then psi (stalk rows: v @ phi_x @ psi_x)."""
    if phi.target is not psi.source and phi.target != psi.source:
        raise ValueError("sheaf morphisms do not compose: target != source")
    return GSheafMor(
        phi.source,
        psi.target,
        {x: phi.maps[x] @ psi.maps[x] for x in phi.source.groupoid.objects},
    )


def is_sheaf_isomorphism(phi: GSheafMor) -> ValidationReport:
    """``validate_sheaf_morphism``, then law "invertibility": every component
    has an inverse.  The inverse this finds stays on ``phi.inverse``."""
    report = validate_sheaf_morphism(phi)
    if report.ok and phi.inverse is None:
        bad = next(x for x in phi.source.groupoid.objects if matrix_inverse(phi.maps[x]) is None)
        return ValidationReport(report.subject, (Failure("invertibility", f"component at {bad!r}"),))
    return report


def direct_sum_sheaf(e: GSheaf, f: GSheaf) -> GSheaf:
    if e.groupoid != f.groupoid or e.ring != f.ring:
        raise ValueError("direct sum needs a common groupoid and ring")
    g = e.groupoid
    return GSheaf(
        g,
        e.ring,
        {x: e.stalk_rank[x] + f.stalk_rank[x] for x in g.objects},
        {a: block_diagonal(e.ring, [e.transport[a], f.transport[a]]) for a in g.arrows},
    )


# -- morphism spaces ---------------------------------------------------------


def sheaf_hom_basis(e: GSheaf, f: GSheaf) -> list[dict[ObjectId, Matrix]]:
    """A basis of the space of sheaf morphisms e -> f, by exact elimination.

    Each X at a base object x with B_e[k]·X = X·B_f[k] on its isotropy
    extends to φ_y = B_e[t_y]·X·B_f[t_y⁻¹] on its component, 0 elsewhere.
    The basis is the canonical one of these morphisms, flattened one block
    per object, each row-major.  Raises ValueError naming the failed law
    when a sheaf of nonzero total rank is invalid.
    """
    extended = list(_extended_commutants(e, f, e.total_rank, f.total_rank))
    if not extended:
        return []
    g, ring = e.groupoid, e.ring
    shapes = [(e.stalk_rank[x], f.stalk_rank[x]) for x in g.objects]
    zeros = {x: Matrix.zeros(ring, *shape) for x, shape in zip(g.objects, shapes)}
    spanning = [[parts.get(x, zeros[x]) for x in g.objects] for parts in extended]
    basis = image_basis(flatten_rows(ring, sum(r * c for r, c in shapes), spanning))
    return [dict(zip(g.objects, blocks)) for blocks in unflatten_rows(basis, shapes)]


def random_sheaf_hom(e: GSheaf, f: GSheaf, rng: Any) -> GSheafMor:
    basis = sheaf_hom_basis(e, f)
    maps = {x: Matrix.zeros(e.ring, e.stalk_rank[x], f.stalk_rank[x]) for x in e.groupoid.objects}
    for comp in basis:
        c = _small_scalar(e.ring, rng)
        maps = {x: maps[x] + comp[x].scaled(c) for x in e.groupoid.objects}
    return GSheafMor(e, f, maps)
