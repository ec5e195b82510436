"""The generic-ring kernels, kept as the oracle for the per-kind fast paths.

Every scalar operation here goes through ``Ring.add``/``Ring.sub``/
``Ring.mul``/``Ring.inv`` and so through ``Ring.coerce``.  This is the
linear algebra ``ample.rings`` ran before its inner loops became native
``int``/``Fraction`` arithmetic; ``tests/test_kernel_oracle.py`` checks the
fast paths against it.  ``hermite`` is the row Hermite form over Z as
it was before ``row_echelon`` appended the identity block itself: it
mirrors every row operation into a transform of its own.  ``kernel_basis``
and ``matrix_inverse`` are the library's compositions rebuilt on these
kernels;
``is_identity`` is ``Matrix.is_identity`` as it was before it compared rows
in place, against a freshly built identity matrix.  ``products`` is the
integer product as ``Matrix.__matmul__`` computed it before it packed the
rows of a right operand over Z/m: one dot product per entry, each reduced
mod m on its own.
``hom_constraint`` is the module hom system with one block of equations per
arrow, and ``sheaf_hom_constraint`` the grid ``gsheaf.sheaf_hom_basis``
eliminated before it solved on the isotropy frame, with one block of
unknowns per object, both filled entry by entry as they were before
``rings.intertwiner_constraints``; ``intertwiner_constraints`` builds such
a system over any blocks a second way, by evaluating L·X_u - X_v·R on each
unit unknown cut into its blocks by ``split_blocks``, which is how the hom
bases cut their flat rows before they reshaped the integer form.  ``sheaf_hom_basis`` and ``random_sheaf_hom`` are the sheaf
morphism basis, the kernel of that dense grid, and its random draw as they
were before (the draw with its own inline coefficient source).
``random_invertible`` is the builder as it was before its row operations
became native vector operations, and ``random_invertible_with_closures``
as it was before it drew inline: a call to ``builders._below`` per draw and
to a ``shear`` or ``scale`` closure per row operation.  ``random_sheaf`` and ``random_module``
are the seeded builders as they were before they drew their parts once
and took one product per arrow: each transport is the twists around the
0/1 matrix of the regular copies, each twist's inverse is an elimination
(``rings.matrix_inverse``), and the module conjugates every action of
``gamma_c`` by the whole of q.  ``pullback_quasi_inverse``, ``qi_mor`` and
``counit_iso`` are the quasi-inverse constructions as they were before they
read the anchors and the preimage index cached on the functor: each call
re-validates the leg, recomputes the anchors and scans ``hom_set`` once per
arrow (``unique_preimage``).  ``composable_pairs``, ``validate_groupoid``
and ``enumerate_bisections`` are the groupoid scans as they were before they
read the endpoint indices: an all-pairs scan for composability and the
axioms, and a test of every arrow subset for bisections.  ``isotropy_plan`` is the
plan as it was derived before one pass checked every law: the witness scan
``law_failures`` of every law but associativity, then ``associative_plan``
with |K|³ lookups per base isotropy group; ``check_group`` is the group
table check as it was before Light's test, with its triple scan.  ``convolve`` is
the convolution product as it was before it summed natively: every term
goes through ``Ring.add``/``Ring.mul`` and the result through
``algebra_element``.  ``table_cells`` is the structure table as it was
built before it convolved only composable pairs: a test of every pair, and
each product's cell read by a scan of the arrows (``support``).
``validate_module`` and ``validate_sheaf`` are the module and sheaf
validators as they were before they checked generators only: every law on
every arrow and every composable pair.  ``validate_hom``,
``validate_sheaf_morphism`` and ``eta_module_hom`` are the three
intertwining scans as they were before they shared one helper.  ``eta_matrix`` is the unit's matrix
as it was before it read the rows of the unit actions: each standard basis
vector is pushed through the unit action at every object.  ``coordinates``,
``sheafify``, ``sh_mor`` and ``isotropy_frame`` are the stalk coordinates as
they were before ``rings.coordinates`` took a whole matrix at once: one
``express_in_basis`` per row.  None of these references takes the
identity shortcut of ``row_echelon``.  ``is_field`` and
``supports_elimination`` are the ring traits as ``Ring`` computed them on
every read, with a primality test of their own: ``is_prime``, the trial
division ``rings._is_prime`` ran before it became Miller-Rabin.  ``push_sheaf`` is the push
forward as it was before it read the arrow lift cached on the functor: each
call builds the preimage index and conjugates every target arrow by the
anchor arrows.  ``round_trip_iso`` is the matrix of ``morita.round_trip``'s
intertwiner as it was built before the closing isomorphism was taken object
by object: a chain of sheaf morphisms over the apex (``pullback_mor`` of the
inverse of epsilon after the quasi-inverse unit), pushed along the left leg
by ``qi_mor`` and closed up with the counit's inverse.

Vectors are tuples of canonical scalars, and ``vec``, ``zero_vec``,
``unit_vec``, ``vec_mat``, ``vec_add``, ``vec_sub`` and ``vec_scale`` are
the row operations on them; the library has none and works on ``Matrix``
rows only.  The last section is the paper's pointwise layer, which the
library states with whole matrices instead (``gamma_c``, ``sheafify``,
``eta_matrix``): the action of an algebra element on one vector (``act``,
by the linear extension ``action_of``), a sheaf's transport of one stalk
vector (``apply_transport``), the germ of a vector at an object and its
transport along a singleton bisection (``Germ``, ``germ_at``,
``germ_transport``), the vector with given stalk coordinates
(``representative``, which ``germ_coords`` undoes), global sections and
their stalkwise action (``Section``, ``section_action``), and
``is_unit_arrow``.  The tests hold the matrix paths to these definitions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from itertools import combinations, product
from operator import mul
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ample import equivalence, morita, rings
from ample.algebra import AlgebraElement, _check_compatible, algebra_element, char_fn
from ample.builders import _below
from ample.equivalence import Sheafification, gamma_c
from ample.gmodule import GModule, GModuleHom, IsotropyFrame
from ample.groupoid import (
    BISECTION_ENUM_GUARD,
    ArrowId,
    Bisection,
    FiniteGroupoid,
    IsotropyPlan,
    ObjectId,
    SizeGuardError,
    _injective_endpoints,
)
from ample.gsheaf import GSheaf, GSheafMor, compose_sheaf_mors, is_sheaf_isomorphism
from ample.morita import (
    GroupoidFunctor,
    MoritaSpan,
    QuasiInverse,
    anchors,
    is_essential_equivalence,
    pullback_sheaf,
)
from ample.rings import Echelon, Matrix, Ring, Scalar
from ample.validation import Failure, ValidationReport


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


def is_field(ring: Ring) -> bool:
    return ring.kind == "Q" or ring.kind == "mod" and is_prime(ring.modulus or 0)


def supports_elimination(ring: Ring) -> bool:
    return is_field(ring) or ring.kind == "Z"


def products(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], cols: int, p: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows of ``left @ right`` for integer rows, ``right`` with ``cols``
    columns: one dot product per entry, reduced mod ``p`` unless it is None."""
    columns = tuple(zip(*right)) if right else ((),) * cols
    if p is None:
        return tuple([tuple([sum(map(mul, r, c)) for c in columns]) for r in left])
    return tuple([tuple([sum(map(mul, r, c)) % p for c in columns]) for r in left])


def matmul(self: Matrix, other: Matrix) -> Matrix:
    if self.ring != other.ring:
        raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
    if self.cols != other.rows:
        raise ValueError(
            f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
        )
    ring = self.ring
    data = []
    for i in range(self.rows):
        row = []
        for j in range(other.cols):
            acc = ring.zero
            for k in range(self.cols):
                acc = ring.add(acc, ring.mul(self.entries[i][k], other.entries[k][j]))
            row.append(acc)
        data.append(tuple(row))
    return Matrix(ring, self.rows, other.cols, tuple(data))


def vec(ring: Ring, values: Iterable[Any]) -> tuple[Scalar, ...]:
    return tuple(ring.coerce(v) for v in values)


def zero_vec(ring: Ring, n: int) -> tuple[Scalar, ...]:
    return (ring.zero,) * n


def unit_vec(ring: Ring, n: int, i: int) -> tuple[Scalar, ...]:
    return tuple(ring.one if j == i else ring.zero for j in range(n))


def vec_mat(v: Sequence[Scalar], a: Matrix) -> tuple[Scalar, ...]:
    """Row vector times matrix: the action of the linear map ``a`` on ``v``."""
    if len(v) != a.rows:
        raise ValueError(f"dimension mismatch: vector of length {len(v)} @ {a.rows}x{a.cols}")
    ring = a.ring
    out = []
    for j in range(a.cols):
        acc = ring.zero
        for i, vi in enumerate(v):
            acc = ring.add(acc, ring.mul(vi, a.entries[i][j]))
        out.append(acc)
    return tuple(out)


def vec_add(ring: Ring, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_sub(ring: Ring, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(ring.sub(a, b) for a, b in zip(u, v))


def vec_scale(ring: Ring, c: Any, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    c = ring.coerce(c)
    return tuple(ring.mul(c, a) for a in u)


def rref(a: Matrix) -> Echelon:
    ring = a.ring
    m = [list(r) for r in a.entries]
    t = [list(unit_vec(ring, a.rows, i)) for i in range(a.rows)]
    pivots: list[int] = []
    pr = 0
    for c in range(a.cols):
        pivot_row = next((i for i in range(pr, a.rows) if not ring.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        t[pr], t[pivot_row] = t[pivot_row], t[pr]
        scale = ring.inv(m[pr][c])
        m[pr] = [ring.mul(scale, x) for x in m[pr]]
        t[pr] = [ring.mul(scale, x) for x in t[pr]]
        for i in range(a.rows):
            if i != pr and not ring.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [ring.sub(x, ring.mul(factor, y)) for x, y in zip(m[i], m[pr])]
                t[i] = [ring.sub(x, ring.mul(factor, y)) for x, y in zip(t[i], t[pr])]
        pivots.append(c)
        pr += 1
        if pr == a.rows:
            break
    reduced = Matrix(ring, a.rows, a.cols, tuple(tuple(r) for r in m))
    transform = Matrix(ring, a.rows, a.rows, tuple(tuple(r) for r in t))
    return Echelon(reduced, transform, tuple(pivots))


def hermite(a: Matrix) -> Echelon:
    # Fraction-free row Hermite form: pivots positive, entries above a pivot
    # reduced into [0, pivot).  Row operations are unimodular and mirrored
    # into the transform.
    ring = a.ring
    m = [list(r) for r in a.entries]
    t = [list(unit_vec(ring, a.rows, i)) for i in range(a.rows)]
    pivots: list[int] = []
    pr = 0
    for c in range(a.cols):
        if pr == a.rows:
            break
        if all(m[i][c] == 0 for i in range(pr, a.rows)):
            continue
        # gcd cascade on column c among rows >= pr
        while True:
            nonzero = [i for i in range(pr, a.rows) if m[i][c] != 0]
            i0 = min(nonzero, key=lambda i: (abs(m[i][c]), i))
            m[pr], m[i0] = m[i0], m[pr]
            t[pr], t[i0] = t[i0], t[pr]
            done = True
            for i in range(pr + 1, a.rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[pr][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[pr])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[pr])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[pr][c] < 0:
            m[pr] = [-x for x in m[pr]]
            t[pr] = [-x for x in t[pr]]
        for i in range(pr):
            q = m[i][c] // m[pr][c]
            if q != 0:
                m[i] = [x - q * y for x, y in zip(m[i], m[pr])]
                t[i] = [x - q * y for x, y in zip(t[i], t[pr])]
        pivots.append(c)
        pr += 1
    reduced = Matrix(ring, a.rows, a.cols, tuple(map(tuple, m)))
    transform = Matrix(ring, a.rows, a.rows, tuple(map(tuple, t)))
    return Echelon(reduced, transform, tuple(pivots))


def row_echelon(a: Matrix) -> Echelon:
    if a.ring.is_field:
        return rref(a)
    if a.ring.kind == "Z":
        return hermite(a)
    return rings.row_echelon(a)  # rejects a composite modulus


def express_in_basis(basis: Matrix, target: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    ring = basis.ring
    if len(target) != basis.cols:
        raise ValueError(f"dimension mismatch: target length {len(target)} vs {basis.cols} cols")
    residue = list(vec(ring, target))
    coeffs = []
    for row in basis.entries:
        lead = next((j for j, x in enumerate(row) if not ring.is_zero(x)), None)
        if lead is None:
            coeffs.append(ring.zero)
            continue
        if ring.is_zero(residue[lead]):
            coeffs.append(ring.zero)
            continue
        if ring.is_field:
            c = ring.mul(residue[lead], ring.inv(row[lead]))
        else:
            if residue[lead] % row[lead] != 0:
                return None
            c = residue[lead] // row[lead]
        coeffs.append(c)
        residue = [ring.sub(x, ring.mul(c, y)) for x, y in zip(residue, row)]
    if not all(ring.is_zero(x) for x in residue):
        return None
    return tuple(coeffs)


def coordinates(basis: Matrix, m: Matrix) -> Matrix | None:
    """C with C @ basis = m, one ``express_in_basis`` per row of m."""
    rows = []
    for row in m.entries:
        found = express_in_basis(basis, row)
        if found is None:
            return None
        rows.append(found)
    return Matrix(basis.ring, m.rows, basis.rows, tuple(rows))


def image_basis(a: Matrix) -> Matrix:
    ech = row_echelon(a)
    keep = ech.reduced.entries[: len(ech.pivots)]
    return Matrix(a.ring, len(keep), a.cols, keep)


def kernel_basis(a: Matrix) -> Matrix:
    ech = row_echelon(a)
    null_rows = ech.transform.entries[len(ech.pivots):]
    raw = Matrix(a.ring, len(null_rows), a.rows, null_rows)
    if raw.rows == 0 or raw.cols == 0:
        return raw
    return image_basis(raw)


def is_identity(a: Matrix) -> bool:
    return a.rows == a.cols and a == Matrix.identity(a.ring, a.rows)


def matrix_inverse(a: Matrix) -> Matrix | None:
    if a.rows != a.cols:
        return None
    ech = row_echelon(a)
    if len(ech.pivots) == a.rows and ech.reduced == Matrix.identity(a.ring, a.rows):
        return ech.transform
    return None


def hom_constraint(m1: Any, m2: Any) -> Matrix:
    """The constraint matrix of Hom(m1, m2): A1[g]·H = H·A2[g] for every arrow g."""
    ring = m1.ring
    r1, r2 = m1.rank, m2.rank
    unknowns = r1 * r2
    arrows = m1.groupoid.arrows
    cols = len(arrows) * r1 * r2
    grid = [[ring.zero] * cols for _ in range(unknowns)]
    for gi, a in enumerate(arrows):
        left, right = m1.action[a], m2.action[a]
        for i in range(r1):
            for j in range(r2):
                col = (gi * r1 + i) * r2 + j
                for k in range(r1):
                    grid[k * r2 + j][col] = ring.add(grid[k * r2 + j][col], left.entries[i][k])
                for l in range(r2):
                    grid[i * r2 + l][col] = ring.sub(grid[i * r2 + l][col], right.entries[l][j])
    return Matrix(ring, unknowns, cols, tuple(tuple(r) for r in grid))


def sheaf_hom_constraint(e: Any, f: Any) -> Matrix:
    """The dense constraint matrix of sheaf morphisms e -> f: one block of
    unknowns per object, one block of equations per arrow."""
    g, ring = e.groupoid, e.ring
    offsets = {}
    total = 0
    for x in g.objects:
        offsets[x] = total
        total += e.stalk_rank[x] * f.stalk_rank[x]
    arrows = g.arrows
    col_offsets = []
    cols = 0
    for a in arrows:
        col_offsets.append(cols)
        cols += e.stalk_rank[g.dst[a]] * f.stalk_rank[g.src[a]]
    grid = [[ring.zero] * cols for _ in range(total)]
    for gi, a in enumerate(arrows):
        x, y = g.dst[a], g.src[a]
        be, bf = e.transport[a], f.transport[a]
        sx, sy = e.stalk_rank[x], e.stalk_rank[y]
        tx, ty = f.stalk_rank[x], f.stalk_rank[y]
        for i in range(sx):
            for j in range(ty):
                col = col_offsets[gi] + i * ty + j
                for k in range(sy):
                    grid[offsets[y] + k * ty + j][col] = ring.add(
                        grid[offsets[y] + k * ty + j][col], be.entries[i][k]
                    )
                for l in range(tx):
                    grid[offsets[x] + i * tx + l][col] = ring.sub(
                        grid[offsets[x] + i * tx + l][col], bf.entries[l][j]
                    )
    return Matrix(ring, total, cols, tuple(tuple(r) for r in grid))


def split_blocks(ring: Ring, blocks: Sequence[tuple[int, int]], flat: Sequence[Scalar]) -> list[Matrix]:
    """The (rows, cols) blocks, each row-major, that ``flat`` holds in turn."""
    out, start = [], 0
    for rows, cols in blocks:
        entries = tuple(tuple(flat[start + i * cols: start + (i + 1) * cols]) for i in range(rows))
        out.append(Matrix(ring, rows, cols, entries))
        start += rows * cols
    return out


def intertwiner_constraints(
    ring: Ring, blocks: Sequence[tuple[int, int]], equations: Sequence[tuple[Matrix, int, int, Matrix]]
) -> Matrix:
    """Row k: the entries of L·X_u - X_v·R over the equations, in order,
    for the unknown vector that is 1 at entry k and 0 elsewhere."""
    total = sum(r * c for r, c in blocks)
    rows = []
    for k in range(total):
        xs = split_blocks(ring, blocks, unit_vec(ring, total, k))
        row: list[Scalar] = []
        for left, u, v, right in equations:
            lx, xr = matmul(left, xs[u]), matmul(xs[v], right)
            for lx_row, xr_row in zip(lx.entries, xr.entries):
                row.extend(ring.sub(p, q) for p, q in zip(lx_row, xr_row))
        rows.append(tuple(row))
    width = sum(left.rows * right.cols for left, _, _, right in equations)
    return Matrix(ring, total, width, tuple(rows))


def sheaf_hom_basis(e: Any, f: Any) -> list[dict[ObjectId, Matrix]]:
    """``gsheaf.sheaf_hom_basis`` as it was: the kernel basis of
    ``sheaf_hom_constraint``, cut into one block per object."""
    constraint = sheaf_hom_constraint(e, f)
    if constraint.rows == 0:
        return []
    out = []
    for row in kernel_basis(constraint).entries:
        comp: dict[ObjectId, Matrix] = {}
        base = 0
        for x in e.groupoid.objects:
            sx, tx = e.stalk_rank[x], f.stalk_rank[x]
            entries = tuple(tuple(row[base + i * tx + j] for j in range(tx)) for i in range(sx))
            comp[x] = Matrix(e.ring, sx, tx, entries)
            base += sx * tx
        out.append(comp)
    return out


def random_sheaf_hom(e: Any, f: Any, rng: random.Random) -> GSheafMor:
    """``gsheaf.random_sheaf_hom`` with its inline coefficient draw."""
    basis = sheaf_hom_basis(e, f)
    maps = {x: Matrix.zeros(e.ring, e.stalk_rank[x], f.stalk_rank[x]) for x in e.groupoid.objects}
    for comp in basis:
        if e.ring.kind == "mod":
            c = rng.randrange(e.ring.modulus)
        else:
            c = rng.randint(-3, 3)
        maps = {x: maps[x] + comp[x].scaled(c) for x in e.groupoid.objects}
    return GSheafMor(e, f, maps)


def random_invertible(ring: Ring, n: int, rng: random.Random) -> Matrix:
    """A random invertible matrix as a product of elementary operations, so
    it stays invertible over Z (unimodular) as well as over fields."""
    m = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    if n == 0:
        return Matrix(ring, 0, 0, ())
    for _ in range(2 * n * n + 2):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:  # shear: row_i += c * row_j
            c = ring.coerce(rng.choice([-2, -1, 1, 2]))
            m[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:  # swap
            m[i], m[j] = m[j], m[i]
        else:  # scale by a unit
            if ring.is_field:
                choices = [2, -1] if ring.kind == "Q" else list(range(1, ring.modulus))
                c = ring.coerce(rng.choice(choices))
            else:
                c = ring.coerce(rng.choice([1, -1]))
            m[i] = [ring.mul(c, a) for a in m[i]]
    out = Matrix(ring, n, n, tuple(tuple(r) for r in m))
    assert matrix_inverse(out) is not None
    return out


def random_invertible_with_closures(ring: Ring, n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random invertible matrix and its inverse.

    The matrix is a product of elementary row operations, so it stays
    invertible over Z (unimodular) as well as over fields.  Its inverse,
    the reversed operations, is built alongside and held transposed, where
    each is a row operation; over Q it is held over a power of two."""
    p, e = ring.modulus, 0
    units = (2, -1) if ring.kind == "Q" else None if ring.is_field else (1, -1)

    def shear(u: list[int], v: list[int], c: int) -> list[int]:
        return [(a + c * b) % p for a, b in zip(u, v)] if p else [a + c * b for a, b in zip(u, v)]

    def scale(u: list[int], c: int) -> list[int]:
        return [c * a % p for a in u] if p else [c * a for a in u]

    m = [[int(i == j) for j in range(n)] for i in range(n)]
    t = [row[:] for row in m]  # the inverse, transposed, over 2**e
    for _ in range(2 * n * n + 2 if n else 0):  # the empty matrix takes no draws
        kind, i, j = _below(rng, 3), _below(rng, n), _below(rng, n)
        if kind == 0 and i != j:  # row_i += c * row_j, so t_j -= c * t_i
            c = (-2, -1, 1, 2)[_below(rng, 4)]
            m[i], t[j] = shear(m[i], m[j], c), shear(t[j], t[i], -c)
        elif kind == 1 and i != j:
            m[i], m[j], t[i], t[j] = m[j], m[i], t[j], t[i]
        else:  # row_i *= c for a unit c, so t_i *= 1/c
            c = 1 + _below(rng, p - 1) if units is None else units[_below(rng, 2)]
            m[i] = scale(m[i], c)
            if c == 2 and not p:  # over Q: halve t_i, that is, double the rest and 2**e
                t, e = [row if k == i else scale(row, 2) for k, row in enumerate(t)], e + 1
            else:
                t[i] = scale(t[i], pow(c, -1, p) if p else c)
    return Matrix.from_ints(ring, m, n), Matrix.from_ints(ring, list(zip(*t)), n, 1 << e)


def random_sheaf(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GSheaf:
    """A random sheaf, deterministic in the seed: per component a
    twisted-constant part and copies of the regular permutation part, each
    stalk re-based by a random invertible change of basis."""
    if not supports_elimination(ring):
        raise ValueError(f"random sheaves need a field or Z, not {ring.name}")
    rng = random.Random(seed)
    component_of: dict[ObjectId, int] = {}
    components = g.connected_components()
    for ci, comp in enumerate(components):
        for x in comp:
            component_of[x] = ci

    fiber: dict[ObjectId, tuple[ArrowId, ...]] = {x: g.arrows_with_src(x) for x in g.objects}
    plan: list[tuple[int, int]] = []  # per component: (constant rank, regular copies)
    for comp in components:
        f = len(fiber[comp[0]])
        options = [(c, r) for r in range(0, 3) for c in range(0, max_rank + 1) if c + r * f <= max_rank]
        plan.append(rng.choice(options) if options else (0, 0))

    stalk_rank: dict[ObjectId, int] = {}
    for x in g.objects:
        c, r = plan[component_of[x]]
        stalk_rank[x] = c + r * len(fiber[x])

    twists: dict[ObjectId, Matrix] = {}
    untwists: dict[ObjectId, Matrix] = {}
    for x in g.objects:
        twists[x] = random_invertible(ring, stalk_rank[x], rng)
        untwists[x] = rings.matrix_inverse(twists[x])

    transport: dict[ArrowId, Matrix] = {}
    for a in g.arrows:
        x, y = g.dst[a], g.src[a]
        c, r = plan[component_of[x]]
        fx, fy = fiber[x], fiber[y]
        n_from, n_to = stalk_rank[x], stalk_rank[y]
        rows = [[0] * n_to for _ in range(n_from)]
        for i in range(c):
            rows[i][i] = 1
        # each regular copy permutes fiber basis vectors by right composition
        index_to = {arrow: k for k, arrow in enumerate(fy)}
        for copy in range(r):
            base_from = c + copy * len(fx)
            base_to = c + copy * len(fy)
            for k, arrow in enumerate(fx):
                moved = g.compose[(arrow, a)]
                rows[base_from + k][base_to + index_to[moved]] = 1
        raw = Matrix.from_rows(ring, rows, n_to)
        transport[a] = untwists[x] @ raw @ twists[y]
    return GSheaf(g, ring, stalk_rank, transport)


def random_module(g: FiniteGroupoid, ring: Ring, max_rank: int, seed: int) -> GModule:
    """The section module of a random sheaf, with a random invertible
    change of the whole carrier's basis."""
    rng = random.Random(seed)
    base = gamma_c(random_sheaf(g, ring, max_rank, rng.randrange(2**32)))
    q = random_invertible(ring, base.rank, rng)
    q_inv = rings.matrix_inverse(q)
    action = {a: q @ base.action[a] @ q_inv for a in g.arrows}
    return GModule(g, ring, base.rank, action)


def eta_matrix(sh: Sheafification) -> Matrix:
    """Rows are the germ-coordinate families of the module's basis vectors."""
    m = sh.module
    rows = []
    for i in range(m.rank):
        out: list[Scalar] = []
        for x in m.groupoid.objects:
            out.extend(germ_coords(sh, unit_vec(m.ring, m.rank, i), x))
        rows.append(tuple(out))
    return Matrix(m.ring, m.rank, sh.sheaf.total_rank, tuple(rows))


def sheafify(m: GModule) -> Sheafification:
    """The germ sheaf with each stalk basis row pushed through the action
    and expressed in the next stalk's basis on its own."""
    g, ring = m.groupoid, m.ring
    basis = {x: image_basis(m.unit_action(x)) for x in g.objects}
    stalk_rank = {x: basis[x].rows for x in g.objects}
    transport: dict[ArrowId, Matrix] = {}
    for a in g.arrows:
        x, y = g.dst[a], g.src[a]
        rows = []
        for i in range(basis[x].rows):
            coords = express_in_basis(basis[y], vec_mat(basis[x].row(i), m.action[a]))
            if coords is None:
                raise ValueError(
                    f"action of {a!r} does not preserve stalk lattices; is the module valid?"
                )
            rows.append(coords)
        transport[a] = Matrix(ring, stalk_rank[x], stalk_rank[y], tuple(rows))
    return Sheafification(m, GSheaf(g, ring, stalk_rank, transport), basis)


def germ_coords(sh: Sheafification, vector: Sequence[Scalar], x: ObjectId) -> tuple[Scalar, ...]:
    """The stalk coordinates at x of the germ of one module vector."""
    found = express_in_basis(sh.stalk_basis[x], vec_mat(vector, sh.module.unit_action(x)))
    if found is None:
        raise ValueError(f"germ at {x!r} is outside the stalk lattice")
    return found


def sh_mor(f: GModuleHom, source: Sheafification, target: Sheafification) -> GSheafMor:
    """Sheafification on morphisms, one stalk basis row at a time."""
    maps: dict[ObjectId, Matrix] = {}
    for x in f.source.groupoid.objects:
        rows = []
        for i in range(source.stalk_basis[x].rows):
            image = vec_mat(source.stalk_basis[x].row(i), f.matrix)
            rows.append(germ_coords(target, image, x))
        maps[x] = Matrix(
            f.source.ring, source.sheaf.stalk_rank[x], target.sheaf.stalk_rank[x], tuple(rows)
        )
    return GSheafMor(source.sheaf, target.sheaf, maps)


def isotropy_frame(m: GModule) -> IsotropyFrame:
    """``GModule.isotropy_frame`` of a valid module, with Q built one row
    of E_x at a time and every product through ``matmul``."""
    g, ring, action = m.groupoid, m.ring, m.action
    plan = g.isotropy_plan
    dims: dict[ObjectId, int] = {}
    loop_reps: dict[ObjectId, tuple[Matrix, ...]] = {}
    lift: dict[ObjectId, Matrix] = {}
    drop: dict[ObjectId, Matrix] = {}
    for comp in plan.components:
        base = comp[0]
        unit = m.unit_action(base)
        p = image_basis(unit)
        q = Matrix(ring, m.rank, p.rows, tuple(express_in_basis(p, row) for row in unit.entries))
        dims[base] = p.rows
        loop_reps[base] = tuple(
            matmul(matmul(p, action[k]), q) for k in g.hom_set(base, base) if k != g.unit[base]
        )
        for y in comp:
            lift[y] = matmul(action[plan.tree[y]], q)
            drop[y] = matmul(p, action[g.inverse[plan.tree[y]]])
    return IsotropyFrame(dims, loop_reps, lift, drop)


def unique_preimage(f: GroupoidFunctor, x: ObjectId, y: ObjectId, b: ArrowId) -> ArrowId:
    """The unique source arrow in hom(x, y) mapping to b (full faithfulness)."""
    matches = [a for a in f.source.hom_set(x, y) if f.arr_map[a] == b]
    if len(matches) != 1:
        raise ValueError(f"functor is not fully faithful over arrow {b!r}")
    return matches[0]


def push_sheaf(f: GroupoidFunctor, e: GSheaf) -> GSheaf:
    if e.groupoid != f.source:
        raise ValueError("sheaf must live over the functor's source")
    s, t = f.source, f.target
    sigma, alpha = anchors(f)
    preimage = {(s.src[a], s.dst[a], f.arr_map[a]): a for a in s.arrows}
    stalk_rank = {y: e.stalk_rank[sigma[y]] for y in t.objects}
    transport: dict[ArrowId, Matrix] = {}
    for h in t.arrows:
        y_from, y_to = t.src[h], t.dst[h]  # h runs y_from -> y_to
        conj = t.compose[(t.inverse[alpha[y_to]], t.compose[(h, alpha[y_from])])]
        transport[h] = e.transport[preimage[sigma[y_from], sigma[y_to], conj]]
    return GSheaf(t, e.ring, stalk_rank, transport)


def pullback_quasi_inverse(f: GroupoidFunctor, e: GSheaf) -> QuasiInverse:
    if e.groupoid != f.source:
        raise ValueError("sheaf must live over the functor's source")
    report = is_essential_equivalence(f)
    if not report.ok:
        raise ValueError(f"not an essential equivalence: {report.first()}")
    s, t = f.source, f.target
    sigma, alpha = anchors(f)

    stalk_rank = {y: e.stalk_rank[sigma[y]] for y in t.objects}
    transport: dict[ArrowId, Matrix] = {}
    for h in t.arrows:
        y_from, y_to = t.src[h], t.dst[h]  # h runs y_from -> y_to
        conj = t.compose[(t.inverse[alpha[y_to]], t.compose[(h, alpha[y_from])])]
        w = unique_preimage(f, sigma[y_from], sigma[y_to], conj)
        transport[h] = e.transport[w]
    pushed = GSheaf(t, e.ring, stalk_rank, transport)

    unit_maps: dict[ObjectId, Matrix] = {}
    for x in s.objects:
        w = unique_preimage(f, sigma[f.obj_map[x]], x, alpha[f.obj_map[x]])
        unit_maps[x] = e.transport[w]
    unit = GSheafMor(e, pullback_sheaf(f, pushed), unit_maps)
    if not is_sheaf_isomorphism(unit):
        raise AssertionError("quasi-inverse unit failed to be an isomorphism")
    return QuasiInverse(f, pushed, unit)


def qi_mor(f: GroupoidFunctor, phi: GSheafMor, source: GSheaf, target: GSheaf) -> GSheafMor:
    sigma, _ = anchors(f)
    return GSheafMor(source, target, {y: phi.maps[sigma[y]] for y in f.target.objects})


def counit_iso(f: GroupoidFunctor, e: GSheaf, pushed_pullback: GSheaf) -> GSheafMor:
    _, alpha = anchors(f)
    maps = {y: e.transport[e.groupoid.inverse[alpha[y]]] for y in f.target.objects}
    iso = GSheafMor(pushed_pullback, e, maps)
    if not is_sheaf_isomorphism(iso):
        raise AssertionError("counit failed to be an isomorphism")
    return iso


def round_trip_iso(span: MoritaSpan, m: GModule) -> Matrix:
    left, right = span.left, span.right
    sh_m = equivalence._germ_sheaf(m)
    e = sh_m.sheaf
    e_apex = pullback_sheaf(left, e)
    push_right = morita.pullback_quasi_inverse(right, e_apex)
    eps = equivalence.epsilon(push_right.value.sheaf)
    qi_e_apex = morita.push_sheaf(left, e_apex)
    counit = morita.counit_iso(left, e, qi_e_apex)
    pushed_back = morita.push_sheaf(left, pullback_sheaf(right, eps.value.sheafification.sheaf))
    chain_apex = compose_sheaf_mors(push_right.value.unit, morita.pullback_mor(right, eps.value.iso.inverse))
    lifted = morita.qi_mor(left, chain_apex, qi_e_apex, pushed_back)
    sheaf_iso = compose_sheaf_mors(counit.value.inverse, lifted)
    blocks = rings.block_diagonal(m.ring, [sheaf_iso.maps[x] for x in e.groupoid.objects])
    return equivalence.eta_matrix(sh_m) @ blocks


def composable_pairs(g: FiniteGroupoid) -> Iterator[tuple[ArrowId, ArrowId]]:
    for a in g.arrows:
        for b in g.arrows:
            if g.composable(a, b):
                yield a, b


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms, reporting violations with witnesses."""
    failures: list[Failure] = []

    for x in g.objects:
        e = g.unit[x]
        if g.src[e] != x or g.dst[e] != x:
            failures.append(Failure("unit endpoints", f"u({x!r}) = {e!r} is not an endo-arrow at {x!r}"))

    for a in g.arrows:
        for b in g.arrows:
            defined = (a, b) in g.compose
            if g.composable(a, b) and not defined:
                failures.append(Failure("composition totality", f"({a!r},{b!r}) composable but undefined"))
            if defined and not g.composable(a, b):
                failures.append(Failure("composition domain", f"({a!r},{b!r}) defined but not composable"))

    for (a, b), ab in g.compose.items():
        if g.composable(a, b):
            if g.src[ab] != g.src[b] or g.dst[ab] != g.dst[a]:
                failures.append(Failure("composition endpoints", f"{a!r}*{b!r} = {ab!r} has wrong endpoints"))

    for a in g.arrows:
        ua = g.unit[g.dst[a]]
        au = g.unit[g.src[a]]
        if g.compose.get((ua, a)) != a or g.compose.get((a, au)) != a:
            failures.append(Failure("unit law", f"units do not act as identities on {a!r}"))

    for a in g.arrows:
        b = g.inverse[a]
        if g.src[b] != g.dst[a] or g.dst[b] != g.src[a]:
            failures.append(Failure("inverse law", f"g={a!r}: inverse has wrong endpoints"))
            continue
        if g.compose.get((b, a)) != g.unit[g.src[a]] or g.compose.get((a, b)) != g.unit[g.dst[a]]:
            failures.append(Failure("inverse law", f"g={a!r}: g⁻¹g or gg⁻¹ is not the unit"))

    for a, b in composable_pairs(g):
        ab = g.compose.get((a, b))
        if ab is None:
            continue
        for c in g.arrows:
            if not g.composable(b, c):
                continue
            bc = g.compose.get((b, c))
            if bc is None:
                continue
            left = g.compose.get((ab, c))
            right = g.compose.get((a, bc))
            if left != right:
                failures.append(Failure("associativity", f"(({a!r}{b!r}){c!r}) != ({a!r}({b!r}{c!r}))"))

    return ValidationReport("groupoid", tuple(failures))


def isotropy_plan(g: FiniteGroupoid) -> IsotropyPlan | None:
    """``FiniteGroupoid.isotropy_plan`` as it was: the other laws scanned
    first, then associativity on the plan with |K|³ lookups per base."""
    return None if law_failures(g) else associative_plan(g)


def law_failures(g: FiniteGroupoid) -> list[Failure]:
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


def associative_plan(g: FiniteGroupoid) -> IsotropyPlan | None:
    """The isotropy plan of a table that passes ``law_failures``, or None
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


def check_group(
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
    for a, b, c in product(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            raise ValueError(f"not a group table: associativity fails at ({a},{b},{c})")
    return identity, inverse


def validate_module(m: Any) -> ValidationReport:
    """``gmodule.validate_module`` as it was: unit, support,
    multiplicativity on every composable pair, and invertibility laws."""
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


def validate_sheaf(e: Any) -> ValidationReport:
    """``gsheaf.validate_sheaf`` as it was: unit transports, composition
    on every composable pair, and invertibility."""
    failures: list[Failure] = []
    g = e.groupoid

    for x in g.objects:
        if not e.transport[g.unit[x]].is_identity:
            failures.append(Failure("unit transport", f"transport of u({x!r}) is not the identity"))

    for a, b in g.composable_pairs():
        ab = g.compose.get((a, b))
        if ab is None:
            continue
        if e.transport[a] @ e.transport[b] != e.transport[ab]:
            failures.append(Failure("composition", f"B[{a!r}] B[{b!r}] != B[{ab!r}]"))

    for a in g.arrows:
        product = e.transport[a] @ e.transport[g.inverse[a]]
        if not product.is_identity:
            failures.append(Failure("invertibility", f"B[{a!r}] B[{g.inverse[a]!r}] != identity"))

    return ValidationReport("sheaf", tuple(failures))


def validate_hom(h: GModuleHom) -> ValidationReport:
    """``gmodule.validate_hom`` as it was: its own scan over every arrow."""
    failures: list[Failure] = []
    for a in h.source.groupoid.arrows:
        if matmul(h.source.action[a], h.matrix) != matmul(h.matrix, h.target.action[a]):
            failures.append(Failure("intertwining", f"square fails at arrow {a!r}"))
    return ValidationReport("module homomorphism", tuple(failures))


def validate_sheaf_morphism(phi: GSheafMor) -> ValidationReport:
    """``gsheaf.validate_sheaf_morphism`` as it was: its own scan over
    every arrow."""
    failures: list[Failure] = []
    g = phi.source.groupoid
    for a in g.arrows:
        x, y = g.dst[a], g.src[a]
        left = matmul(phi.maps[x], phi.target.transport[a])
        right = matmul(phi.source.transport[a], phi.maps[y])
        if left != right:
            failures.append(Failure("equivariance", f"square fails at arrow {a!r}"))
    return ValidationReport("sheaf morphism", tuple(failures))


def eta_module_hom(m: GModule, h: Matrix, gamma: GModule) -> Failure | None:
    """The ``module-hom`` check of ``equivalence.eta`` as it was: the first
    arrow whose square fails, by its own scan."""
    for a in m.groupoid.arrows:
        if matmul(m.action[a], h) != matmul(h, gamma.action[a]):
            return Failure("module-hom", f"intertwining fails at arrow {a!r}")
    return None


def enumerate_bisections(g: FiniteGroupoid) -> list[Bisection]:
    """All compact open bisections, ordered by (size, arrow indices)."""
    n = len(g.arrows)
    if n > BISECTION_ENUM_GUARD:
        raise SizeGuardError(
            f"bisection enumeration is guarded at {BISECTION_ENUM_GUARD} arrows, got {n}"
        )
    found: list[Bisection] = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            arrows = tuple(g.arrows[i] for i in combo)
            if _injective_endpoints(g, arrows):
                found.append(Bisection(arrows))
    return found


def convolve(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    _check_compatible(f1, f2)
    g, ring = f1.groupoid, f1.ring
    acc: dict[ArrowId, Scalar] = {}
    for a, ca in f1.coeffs.items():
        for b, cb in f2.coeffs.items():
            if g.composable(a, b):
                ab = g.compose[(a, b)]
                acc[ab] = ring.add(acc.get(ab, ring.zero), ring.mul(ca, cb))
    return algebra_element(g, ring, acc)


def support(f: AlgebraElement) -> tuple[ArrowId, ...]:
    return tuple(a for a in f.groupoid.arrows if a in f.coeffs)


def table_cells(g: FiniteGroupoid, ring: Ring) -> dict[tuple[ArrowId, ArrowId], ArrowId | None]:
    singleton = {a: char_fn(g, Bisection.of(g, [a]), ring) for a in g.arrows}
    cells: dict[tuple[ArrowId, ArrowId], ArrowId | None] = {}
    for a in g.arrows:
        for b in g.arrows:
            if g.composable(a, b):
                (cell,) = support(convolve(singleton[a], singleton[b]))
                cells[(a, b)] = cell
            else:
                cells[(a, b)] = None
    return cells


# -- the pointwise layer: the paper's definitions, one vector at a time ------


def is_unit_arrow(g: FiniteGroupoid, a: ArrowId) -> bool:
    return a in g.unit.values()


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


def apply_transport(e: GSheaf, vector: Sequence[Scalar], a: ArrowId) -> tuple[Scalar, ...]:
    """Push a stalk vector at dst(a) along a to the stalk at src(a)."""
    g = e.groupoid
    if a not in g.arrow_index:
        raise ValueError(f"unknown arrow id {a!r}")
    if len(vector) != e.stalk_rank[g.dst[a]]:
        raise ValueError(
            f"stalk mismatch: vector of length {len(vector)} at {g.dst[a]!r}"
            f" (rank {e.stalk_rank[g.dst[a]]})"
        )
    return vec_mat(vec(e.ring, vector), e.transport[a])


@dataclass(frozen=True, eq=False)
class Germ:
    """The germ of a module element at an object.

    Two germs at the same object are equal exactly when the unit idempotent
    of that object maps their representatives to the same vector; with a
    finite discrete unit space the singleton of the base point is its least
    compact open neighborhood, so this one product decides germ equality.
    """

    module: GModule
    base: ObjectId
    representative: tuple[Scalar, ...]
    normal_form: tuple[Scalar, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Germ):
            return NotImplemented
        return (
            self.module == other.module
            and self.base == other.base
            and self.normal_form == other.normal_form
        )

    @property
    def is_zero(self) -> bool:
        return not any(self.normal_form)


def germ_at(m: GModule, vector: Sequence[Scalar], x: ObjectId) -> Germ:
    if x not in m.groupoid.object_index:
        raise ValueError(f"unknown object id {x!r}")
    rep = vec(m.ring, vector)
    if len(rep) != m.rank:
        raise ValueError(f"vector length {len(rep)} does not match module rank {m.rank}")
    return Germ(m, x, rep, vec_mat(rep, m.unit_action(x)))


def germ_transport(germ: Germ, a: ArrowId) -> Germ:
    """Transport a germ along an arrow via its singleton bisection."""
    m = germ.module
    g = m.groupoid
    if a not in g.arrow_index:
        raise ValueError(f"unknown arrow id {a!r}")
    if germ.base != g.dst[a]:
        raise ValueError(f"germ based at {germ.base!r} cannot move along {a!r} (dst {g.dst[a]!r})")
    moved = act(m, germ.representative, char_fn(g, Bisection.of(g, [a]), m.ring))
    return germ_at(m, moved, g.src[a])


def representative(sh: Sheafification, coords: Sequence[Scalar], x: ObjectId) -> tuple[Scalar, ...]:
    """The module vector with stalk coordinates ``coords`` at x: ``germ_coords`` undone."""
    return vec_mat(vec(sh.module.ring, coords), sh.stalk_basis[x])


@dataclass(frozen=True)
class Section:
    """A global section: one stalk vector per object (all of them, since the
    whole unit space is compact)."""

    sheaf: GSheaf
    values: Mapping[ObjectId, tuple[Scalar, ...]]

    def __post_init__(self) -> None:
        e = self.sheaf
        if set(self.values) != set(e.groupoid.objects):
            raise ValueError("section must assign a value to every object")
        for x, v in self.values.items():
            if len(v) != e.stalk_rank[x]:
                raise ValueError(f"value at {x!r} has length {len(v)}, stalk rank {e.stalk_rank[x]}")


def section_action(s: Section, f: AlgebraElement) -> Section:
    """The action of an algebra element on a section, computed stalkwise:
    the new value at x sums f(a) times the transported value s(dst a) a over
    the arrows a with source x."""
    e = s.sheaf
    if f.groupoid != e.groupoid or f.ring != e.ring:
        raise ValueError("algebra element and section are not compatible")
    g, ring = e.groupoid, e.ring
    values: dict[ObjectId, tuple[Scalar, ...]] = {}
    for x in g.objects:
        acc = zero_vec(ring, e.stalk_rank[x])
        for a, c in f.coeffs.items():
            if g.src[a] == x:
                moved = vec_mat(s.values[g.dst[a]], e.transport[a])
                acc = vec_add(ring, acc, vec_scale(ring, c, moved))
        values[x] = acc
    return Section(e, values)
