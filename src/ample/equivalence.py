"""The two functors between unitary modules and groupoid sheaves.

One direction takes a sheaf to its module of global sections: the carrier
is the direct sum of the stalks (blocks in object declaration order) and an
arrow acts by its transport placed in the matching block.  The other
direction rebuilds a sheaf from a module through germs: the germ of a
module element at an object is its image under that object's unit
idempotent, the stalk is the image of that idempotent re-based onto an
echelon basis, and arrows transport germs through their singleton
characteristic functions.

Both composites are certified isomorphisms: eta sends a module element to
its family of germ coordinates, epsilon evaluates the germ of a section at
its base point.  Each certificate, like each naturality check, is a
``ValidationReport``; a failed one names the failed check, with a witness.
Where an arrow's action leaves the stalk lattices there is no germ sheaf:
eta, epsilon and the eta square then fail under the law "germ sheaf", with
``sheafify``'s message as the witness.  eta and epsilon certify the family
they are given and do not validate it, so on a non-module their verdict
can depend on the ring: epsilon passes the one-object sheaf with unit
transport 2 over Fp:5 and fails it over Z.

Everything here works on whole matrices; the pointwise definitions (the
germ of one vector, a section and its stalkwise action, transport along a
singleton bisection) are kept in ``tests/reference_kernels.py`` as the
oracle these matrix paths are checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from .gmodule import GModule, GModuleHom, _unintertwined
from .groupoid import ArrowId, ObjectId
from .gsheaf import GSheaf, GSheafMor, validate_sheaf_morphism
from .rings import (
    Matrix,
    assemble,
    block_diagonal,
    coordinates,
    image_basis,
    kernel_basis,
    matrix_inverse,
    projector_image,
    projector_rows,
    read_block,
    stack_rows,
)
from .validation import Failure, ValidationReport


# -- the section module -------------------------------------------------------


def block_offsets(e: GSheaf) -> dict[ObjectId, int]:
    objects = e.groupoid.objects
    return dict(zip(objects, accumulate([e.stalk_rank[x] for x in objects], initial=0)))


def gamma_c(e: GSheaf) -> GModule:
    """The module of global sections, on the direct sum of the stalks."""
    g, ring = e.groupoid, e.ring
    offsets = block_offsets(e)
    total = e.total_rank
    action = {
        a: assemble(ring, total, total, [(offsets[g.dst[a]], offsets[g.src[a]], e.transport[a])])
        for a in g.arrows
    }
    return GModule(g, ring, total, action)


def gamma_c_mor(phi: GSheafMor) -> GModuleHom:
    """Sections functor on morphisms: the block-diagonal matrix of components."""
    e, f = phi.source, phi.target
    matrix = block_diagonal(e.ring, [phi.maps[x] for x in e.groupoid.objects])
    return GModuleHom(gamma_c(e), gamma_c(f), matrix)


# -- sheafification -----------------------------------------------------------


@dataclass(frozen=True)
class Sheafification:
    """A module's germ sheaf together with the coordinate data tying the two.

    The stalk at x is the image of the unit idempotent at x, re-based on the
    basis ``image_basis`` returns for it (rows of ``stalk_basis[x]``: reduced
    over a field, as ``coordinates`` needs); ``germ_coords`` expresses germ
    normal forms in that basis.
    """

    module: GModule
    sheaf: GSheaf
    stalk_basis: Mapping[ObjectId, Matrix]

    def germ_coords(self, germs: Matrix, x: ObjectId) -> Matrix:
        """The coordinates at x, in the stalk basis, of the germ normal forms
        that are the rows of ``germs``."""
        found = coordinates(self.stalk_basis[x], germs)
        if found is None:
            raise ValueError(f"germ at {x!r} is outside the stalk lattice")
        return found


class _OffLatticeError(ValueError):
    """``sheafify``'s error: an arrow's action leaves the stalk lattices."""


def sheafify(m: GModule) -> Sheafification:
    """Build the germ sheaf of a module (needs a field or Z for bases).

    When every unit action is a coordinate projector (``projector_rows``),
    as in a section module with identity unit transports, each stalk basis
    is the kept unit rows and the transport of a is the block of its action
    at the rows kept at dst a and the columns kept at src a: no product and
    no elimination.  Of a section module that block is the sheaf's own
    transport object, which ``gamma_c`` placed and ``read_block`` returns."""
    # The germ of v at x is its normal form v·E_x, E_x the unit action at x:
    # with a finite discrete unit space the singleton of x is its least
    # compact open neighbourhood, so this one product decides germ equality,
    # and the stalk at x is the row space of E_x.
    g, elim = m.groupoid, m.ring.supports_elimination
    units = {x: m.unit_action(x) for x in g.objects}
    kept = {x: projector_rows(e) for x, e in units.items()}
    basis = {
        x: image_basis(e) if kept[x] is None or not elim else projector_image(e, kept[x])
        for x, e in units.items()
    }
    blocks = None not in kept.values()
    stalk_rank = {x: basis[x].rows for x in g.objects}
    transport: dict[ArrowId, Matrix] = {}
    for a in g.arrows:
        x, y = g.dst[a], g.src[a]
        if blocks:
            coords = read_block(m.action[a], kept[x], kept[y])
        else:
            coords = coordinates(basis[y], basis[x] @ m.action[a])
        if coords is None:
            raise _OffLatticeError(
                f"action of {a!r} does not preserve stalk lattices; is the module valid?"
            )
        transport[a] = coords
    sheaf = GSheaf(g, m.ring, stalk_rank, transport)
    return Sheafification(m, sheaf, basis)


def _germ_sheaf(m: GModule) -> Sheafification | Failure:
    """``sheafify(m)``, or its complaint as a "germ sheaf" failure when an
    arrow's action leaves the stalk lattices (so m is not a module)."""
    try:
        return sheafify(m)
    except _OffLatticeError as exc:
        return Failure("germ sheaf", str(exc))


def sh_mor(
    f: GModuleHom,
    source: Sheafification | None = None,
    target: Sheafification | None = None,
) -> GSheafMor:
    """Sheafification on morphisms: the induced map on germ coordinates."""
    source = source if source is not None else sheafify(f.source)
    target = target if target is not None else sheafify(f.target)
    maps = {
        x: target.germ_coords(source.stalk_basis[x] @ f.matrix @ f.target.unit_action(x), x)
        for x in f.source.groupoid.objects
    }
    return GSheafMor(source.sheaf, target.sheaf, maps)


# -- the natural isomorphisms -------------------------------------------------


@dataclass(frozen=True)
class NaturalIsoCertificate:
    """The value of an eta or epsilon report: the unit ``iso`` and the germ
    sheaf it goes through (of the module for eta, of the section module for
    epsilon).  For eta ``iso`` is the matrix from the module to the section
    module of its germ sheaf; for epsilon it is the stalkwise morphism from
    that germ sheaf onto the original sheaf."""

    sheafification: Sheafification
    iso: Matrix | GSheafMor


def eta_matrix(sh: Sheafification) -> Matrix:
    """Rows are the germ-coordinate families of the module's basis vectors.

    The germ of basis vector i at x is row i of the unit action at x, so
    row i is the coordinates of those rows, object after object."""
    m = sh.module
    offsets = block_offsets(sh.sheaf)
    blocks = [(0, offsets[x], sh.germ_coords(m.unit_action(x), x)) for x in m.groupoid.objects]
    return assemble(m.ring, m.rank, sh.sheaf.total_rank, blocks)


def eta(m: GModule) -> ValidationReport:
    """Certify the unit: module -> sections of its germ sheaf.

    Checks, in order: the map intertwines the actions on the arrow spanning
    set; it is injective (trivial kernel); it is surjective, constructively,
    by exhibiting a preimage of every standard basis section through the
    partition of the unit space into its points (the preimages are exactly
    the stalk basis rows).  The report names the first check that fails;
    before them all, the germ sheaf must exist (law "germ sheaf").
    """
    sh = _germ_sheaf(m)
    if isinstance(sh, Failure):
        return ValidationReport("eta", (sh,))
    gamma = gamma_c(sh.sheaf)
    h = eta_matrix(sh)

    bad = _unintertwined(m.groupoid, m.action, dict.fromkeys(m.groupoid.objects, h), gamma.action)
    preimages = stack_rows(m.ring, [sh.stalk_basis[x] for x in m.groupoid.objects], m.rank)
    if bad:
        failures = (Failure("module-hom", f"intertwining fails at arrow {bad[0]!r}"),)
    elif kernel_basis(h).rows != 0:
        failures = (Failure("injective", "nontrivial kernel"),)
    elif (preimages @ h) != Matrix.identity(m.ring, gamma.rank):
        failures = (Failure("surjective", "partition preimages do not hit the basis"),)
    else:
        failures = ()
    return ValidationReport("eta", failures, NaturalIsoCertificate(sh, h))


def epsilon(e: GSheaf) -> ValidationReport:
    """Certify the counit: germ sheaf of the section module -> the sheaf.

    The stalkwise map evaluates the germ of a section at its base point; in
    coordinates it is the block of the stalk basis sitting over that object.
    Checks, in order: the germ sheaf of the section module exists (law
    "germ sheaf"), stalk support, stalkwise bijectivity, equivariance; the
    report names the first that fails.  The bijectivity check is
    ``iso.inverse``, so the morphism carries the inverse that check
    computed; on failure the witness names the first object, in declaration
    order, whose component is singular.

    Only a faulty ``sheafify`` or ``gamma_c`` can fail stalk support or
    equivariance: ``gamma_c`` puts each unit transport in its own block, so
    no germ basis leaks, and a leak-free counit is equivariant by
    construction.  Their negative tests reach them through a patched
    ``sheafify``; both checks stay, as the certificate's own evidence.
    """
    sh = _germ_sheaf(gamma_c(e))
    if isinstance(sh, Failure):
        return ValidationReport("epsilon", (sh,))
    offsets = block_offsets(e)
    g = e.groupoid

    components: dict[ObjectId, Matrix] = {}
    leaks: list[Failure] = []
    for x in g.objects:
        basis = sh.stalk_basis[x]
        lo, hi = offsets[x], offsets[x] + e.stalk_rank[x]
        if not (basis.column_slice(0, lo).is_zero and basis.column_slice(hi, basis.cols).is_zero):
            leaks.append(Failure("stalk-support", f"germ basis at {x!r} leaks outside its block"))
        components[x] = basis.column_slice(lo, hi)
    morphism = GSheafMor(sh.sheaf, e, components)

    if leaks:
        failures = (leaks[0],)
    elif morphism.inverse is None:
        bad = next(x for x in g.objects if matrix_inverse(components[x]) is None)
        failures = (Failure("stalkwise-bijective", f"component at {bad!r}"),)
    else:
        squares = validate_sheaf_morphism(morphism)
        failures = () if squares.ok else (Failure("equivariant", squares.first().witness),)
    return ValidationReport("epsilon", failures, NaturalIsoCertificate(sh, morphism))


# -- naturality ----------------------------------------------------------------


def check_naturality(morphism: GModuleHom | GSheafMor) -> ValidationReport:
    """Check the naturality square of eta (module homs, law "eta square") or
    epsilon (sheaf morphisms, law "epsilon square") by exact matrix equality;
    an eta square whose source or target has no germ sheaf fails under
    "germ sheaf".  An epsilon square whose source or target counit fails
    names that end, source first, and the counit's first failure as its
    witness: ``epsilon square: source epsilon: <law>: <witness>``."""
    if isinstance(morphism, GModuleHom):
        return _check_eta_square(morphism)
    if isinstance(morphism, GSheafMor):
        return _check_epsilon_square(morphism)
    raise TypeError(f"expected a module hom or sheaf morphism, got {type(morphism).__name__}")


def _naturality(*failures: Failure) -> ValidationReport:
    return ValidationReport("naturality", failures)


def _check_eta_square(f: GModuleHom) -> ValidationReport:
    sh_src, sh_tgt = _germ_sheaf(f.source), _germ_sheaf(f.target)
    for sh in (sh_src, sh_tgt):
        if isinstance(sh, Failure):
            return _naturality(sh)
    phi = sh_mor(f, sh_src, sh_tgt)
    gamma_phi = block_diagonal(f.source.ring, [phi.maps[x] for x in f.source.groupoid.objects])
    if f.matrix @ eta_matrix(sh_tgt) != eta_matrix(sh_src) @ gamma_phi:
        return _naturality(Failure("eta square", "eta square does not commute"))
    return _naturality()


def _check_epsilon_square(phi: GSheafMor) -> ValidationReport:
    eps_src = epsilon(phi.source)
    eps_tgt = eps_src if phi.target is phi.source else epsilon(phi.target)
    for end, eps in (("source", eps_src), ("target", eps_tgt)):
        if not eps.ok:
            return _naturality(Failure("epsilon square", f"{end} epsilon: {eps.first()}"))
    eps_src, eps_tgt = eps_src.value, eps_tgt.value
    matrix = block_diagonal(phi.source.ring, [phi.maps[x] for x in phi.source.groupoid.objects])
    gamma_phi = GModuleHom(eps_src.sheafification.module, eps_tgt.sheafification.module, matrix)
    psi = sh_mor(gamma_phi, eps_src.sheafification, eps_tgt.sheafification)
    for x in phi.source.groupoid.objects:
        left = psi.maps[x] @ eps_tgt.iso.maps[x]
        right = eps_src.iso.maps[x] @ phi.maps[x]
        if left != right:
            return _naturality(Failure("epsilon square", f"epsilon square fails at object {x!r}"))
    return _naturality()
