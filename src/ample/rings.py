"""Exact coefficient rings and the dense exact linear algebra built on them.

Three kinds of coefficients are supported: the rationals Q (stdlib
fractions), the integers Z, and the modular rings Z/m.  A modular ring with
prime modulus is the field F_p and, like Q, supports the full linear-algebra
kit (echelon forms, kernels, row-space bases, solving, inversion).  Z is
handled fraction-free through Hermite row reduction, so integer inputs never
leave the integers.  Composite moduli offer arithmetic and equality only.

``Ring.coerce`` is the input boundary: ``vec``, ``Matrix.from_rows``,
``Ring.scalar_from_json`` and the scalar of ``vec_scale``/``Matrix.scaled``
turn outside values into canonical elements (``Fraction`` over Q, ``int``
over Z, ``int`` in ``[0, m)`` over Z/m), and every ``Matrix`` holds only
canonical elements.  Shapes are checked at the same boundary and nowhere
else: ``Matrix.from_rows`` rejects ragged rows and rows that do not match
``cols``, and the document parser checks each declared matrix shape; the
plain ``Matrix(...)`` constructor is the kernels' unchecked one.  Past that boundary the kernels (products, sums,
echelon forms, ``express_in_basis``) run native arithmetic picked once per
call from the ring's modulus: ``int`` operations with one ``% m`` per
result entry over Z/m and plain ``int`` over Z.  Over Q they run on
integers too: each vector is held as integer numerators over one common
denominator (``_common_denominator``), dot products are integer sums, and
one ``Fraction`` is built per nonzero result entry.  A Q matrix computes
the integer forms of its rows and of its columns once, on first use
(``Matrix.int_rows``, ``Matrix.int_cols``), and every later product,
elimination or ``express_in_basis`` it takes part in reads them from
there.  Elimination visits only the nonzero entries of each pivot row.

An identity skips the arithmetic: ``Matrix.is_identity`` compares with one
shared identity per (ring, size), a product with an identity operand
returns the other operand once the ring and shape checks pass, and
``row_echelon`` returns an identity as its own reduced form and transform.
``coordinates`` expresses every row of a matrix in an echelon basis at once:
over a field it reads the coordinates off the pivot columns and checks them
in one pass, falling back to ``express_in_basis`` row by row.

Conventions used throughout the library: vectors are rows, linear maps act
on the right (``v @ A``), and matrix products compose left to right, so
``A @ B`` means "apply A, then B".  All values are immutable and every
operation is deterministic: identical inputs give bit-identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Any, Iterable, Sequence

Scalar = Any  # int for Z and Z/m, Fraction for Q


class UnsupportedRingError(ValueError):
    """Raised when an operation needs a field or Z but got a composite modulus."""


@lru_cache(maxsize=256)
def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Ring:
    """A coefficient ring: kind is one of "Q", "Z", "mod" (with a modulus)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "Z", "mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "mod":
            if not isinstance(self.modulus, int) or self.modulus < 1:
                raise ValueError("modulus must be a positive integer")
        elif self.modulus is not None:
            raise ValueError(f"ring {self.kind} takes no modulus")

    @property
    def name(self) -> str:
        if self.kind == "mod":
            assert self.modulus is not None
            if _is_prime(self.modulus):
                return f"Fp:{self.modulus}"
            return f"Zmod:{self.modulus}"
        return self.kind

    @property
    def is_field(self) -> bool:
        if self.kind == "Q":
            return True
        return self.kind == "mod" and _is_prime(self.modulus or 0)

    @property
    def supports_elimination(self) -> bool:
        """True when kernels/images/solving are available (a field, or Z)."""
        return self.is_field or self.kind == "Z"

    # -- element arithmetic ------------------------------------------------

    def coerce(self, value: Any) -> Scalar:
        if isinstance(value, bool) or isinstance(value, float):
            raise ValueError(f"inexact or boolean scalar {value!r}")
        if self.kind == "Q":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise ValueError(f"cannot coerce {value!r} into Q")
        if not isinstance(value, int):
            raise ValueError(f"cannot coerce {value!r} into {self.name}")
        if self.kind == "mod":
            return value % self.modulus  # type: ignore[operator]
        return value

    @cached_property
    def zero(self) -> Scalar:
        return self.coerce(0)

    @cached_property
    def one(self) -> Scalar:
        return self.coerce(1)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self.coerce(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self.coerce(a - b)

    def neg(self, a: Scalar) -> Scalar:
        return self.coerce(-a)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.coerce(a * b)

    def inv(self, a: Scalar) -> Scalar:
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in Q")
            return Fraction(1) / a
        if self.is_field:
            if a % self.modulus == 0:  # type: ignore[operator]
                raise ZeroDivisionError(f"inverse of 0 in {self.name}")
            return pow(a, -1, self.modulus)
        raise UnsupportedRingError(f"{self.name} is not a field")

    def is_zero(self, a: Scalar) -> bool:
        return not a

    # -- text and JSON forms ----------------------------------------------

    def format_scalar(self, a: Scalar) -> str:
        return str(a)

    def scalar_to_json(self, a: Scalar) -> int | str:
        if self.kind == "Q":
            frac = Fraction(a)
            return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        return int(a)

    def scalar_from_json(self, value: Any) -> Scalar:
        if self.kind == "Q" and isinstance(value, str):
            num, slash, den = value.partition("/")
            try:
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {value!r}") from exc
        return self.coerce(value)


RATIONALS = Ring("Q")
INTEGERS = Ring("Z")


def modular(m: int) -> Ring:
    return Ring("mod", m)


def ring_from_name(name: str) -> Ring:
    """Parse a ring name: "Q", "Z", "Fp:<prime>", "Zmod:<m>" (alias "F<p>")."""
    text = name.strip()
    if text == "Q":
        return RATIONALS
    if text == "Z":
        return INTEGERS
    head, _, tail = text.partition(":")
    if head == "Fp" and tail:
        value = _parse_modulus(text, tail)
        if not _is_prime(value):
            raise ValueError(f"Fp modulus must be prime, got {value}")
        return modular(value)
    if head == "Zmod" and tail:
        return modular(_parse_modulus(text, tail))
    if text.startswith("F") and text[1:].isdigit():
        value = int(text[1:])
        if not _is_prime(value):
            raise ValueError(f"F<p> shorthand needs a prime, got {value}")
        return modular(value)
    raise ValueError(f"unknown ring name {name!r} (expected Q, Z, Fp:<p> or Zmod:<m>)")


def _parse_modulus(full: str, tail: str) -> int:
    if not tail.isdigit() or int(tail) < 1:
        raise ValueError(f"bad modulus in ring name {full!r}")
    return int(tail)


# -- vectors (plain tuples of scalars) ------------------------------------


def vec(ring: Ring, values: Iterable[Any]) -> tuple[Scalar, ...]:
    return tuple(ring.coerce(v) for v in values)


def zero_vec(ring: Ring, n: int) -> tuple[Scalar, ...]:
    return (ring.zero,) * n


def unit_vec(ring: Ring, n: int, i: int) -> tuple[Scalar, ...]:
    return tuple(ring.one if j == i else ring.zero for j in range(n))


def vec_add(ring: Ring, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} + {len(v)}")
    p = ring.modulus
    if p is None:
        return tuple(a + b for a, b in zip(u, v))
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(ring: Ring, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} - {len(v)}")
    p = ring.modulus
    if p is None:
        return tuple(a - b for a, b in zip(u, v))
    return tuple((a - b) % p for a, b in zip(u, v))


def vec_scale(ring: Ring, c: Any, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return _scale(ring, ring.coerce(c), u)


def _scale(ring: Ring, c: Scalar, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    p = ring.modulus
    if p is None:
        return tuple(c * a for a in u)
    return tuple(c * a % p for a in u)


def vec_is_zero(ring: Ring, u: Sequence[Scalar]) -> bool:
    return not any(u)


def intertwiner_constraints(
    ring: Ring, rows: int, cols: int, pairs: Sequence[tuple["Matrix", "Matrix"]]
) -> "Matrix":
    """The linear system of L·X = X·R over the pairs (L, R), for one
    rows×cols unknown X: one row per entry of X and one column per entry of
    each L·X - X·R, both row-major."""
    width = len(pairs) * rows * cols
    grid = [[ring.zero] * width for _ in range(rows * cols)]
    col = 0
    for left, right in pairs:
        if (left.rows, left.cols, right.rows, right.cols) != (rows, rows, cols, cols):
            raise ValueError(f"pair does not fit a {rows}x{cols} unknown")
        for i, left_row in enumerate(left.entries):
            for j in range(cols):
                for k, x in enumerate(left_row):
                    if x:
                        grid[k * cols + j][col] += x
                for l, right_row in enumerate(right.entries):
                    if right_row[j]:
                        grid[i * cols + l][col] -= right_row[j]
                col += 1
    p = ring.modulus
    canonical = grid if p is None else ([x % p for x in r] for r in grid)
    return Matrix(ring, rows * cols, width, tuple(map(tuple, canonical)))


def split_blocks(ring: Ring, blocks: Sequence[tuple[int, int]], flat: Sequence[Scalar]) -> list["Matrix"]:
    """The (rows, cols) blocks, each row-major, that ``flat`` holds in turn."""
    out, start = [], 0
    for rows, cols in blocks:
        entries = tuple(tuple(flat[start + i * cols: start + (i + 1) * cols]) for i in range(rows))
        out.append(Matrix(ring, rows, cols, entries))
        start += rows * cols
    return out


def vec_mat(v: Sequence[Scalar], a: "Matrix") -> tuple[Scalar, ...]:
    """Row vector times matrix: the action of the linear map ``a`` on ``v``."""
    if len(v) != a.rows:
        raise ValueError(f"dimension mismatch: vector of length {len(v)} @ {a.rows}x{a.cols}")
    return _products(a.ring, (v,), a)[0]


def _common_denominator(v: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """Rationals (or ints) as integer numerators over their positive lcm denominator."""
    dens = [x.denominator for x in v]
    d = lcm(*dens)
    if d == 1:
        return tuple([x.numerator for x in v]), 1
    return tuple([x.numerator * (d // e) for x, e in zip(v, dens)]), d


def _from_common(nums: Sequence[int], d: int, zero: Scalar) -> tuple[Scalar, ...]:
    """The canonical ``Fraction`` entries of numerators ``nums`` over ``d``."""
    return tuple(Fraction(x, d) if x else zero for x in nums)


def _products(
    ring: Ring, left: "Matrix | Sequence[Sequence[Scalar]]", b: "Matrix"
) -> tuple[tuple[Scalar, ...], ...]:
    """The rows of ``left @ b``: one dot product and one reduction per entry.

    ``left`` is a matrix or a sequence of rows.  Over Q, each row of
    ``left`` and each column of ``b`` is scaled to integers by the lcm of
    its denominators (read from a matrix's cached ``int_rows`` and
    ``int_cols``), so a dot product is an integer sum and each nonzero
    entry is one ``Fraction`` over the two lcms.
    """
    zero = ring.zero
    rows = left.entries if isinstance(left, Matrix) else left
    if b.rows == 0:
        return tuple((zero,) * b.cols for _ in rows)
    if ring.kind == "Q":
        forms = left.int_rows if isinstance(left, Matrix) else map(_common_denominator, rows)
        right = b.int_cols
        return tuple(
            tuple(Fraction(t, d * e) if (t := sum(map(mul, nums, c))) else zero for c, e in right)
            for nums, d in forms
        )
    cols = tuple(zip(*b.entries))
    p = ring.modulus
    if p is None:
        return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in rows)
    return tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in rows)


# -- matrices --------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """A dense exact matrix; entries are row-major tuples over one ring.
    The constructor trusts its shape; ``from_rows`` is the checked one.

    Over Q, ``int_rows`` and ``int_cols`` are the integer forms of the rows
    and columns, built on first use and kept for the life of the matrix.
    They are not fields, so equality, hashing and reports ignore them."""

    ring: Ring
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row as ``_common_denominator`` gives it."""
        return tuple(map(_common_denominator, self.entries))

    @cached_property
    def int_cols(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each column as ``_common_denominator`` gives it."""
        cols = zip(*self.entries) if self.rows else ((),) * self.cols
        return tuple(map(_common_denominator, cols))

    @staticmethod
    def from_rows(ring: Ring, rows: Sequence[Sequence[Any]], cols: int | None = None) -> "Matrix":
        data = tuple(vec(ring, row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError(f"every row must have {cols} entries")
        return Matrix(ring, len(data), cols, data)

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        return _identity(ring, n)

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, tuple(zero_vec(ring, cols) for _ in range(rows)))

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(self.ring, r) for r in self.entries)

    @property
    def is_identity(self) -> bool:
        # the corner test turns most other matrices away before the lookup
        n, rows = self.rows, self.entries
        return n == self.cols and (
            n == 0 or rows[0][0] == self.ring.one and rows == _identity(self.ring, n).entries
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product; an identity operand returns the other one unchanged."""
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        return Matrix(self.ring, self.rows, other.cols, _products(self.ring, self, other))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(vec_add(self.ring, a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(vec_sub(self.ring, a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, c: Any) -> "Matrix":
        c = self.ring.coerce(c)
        return Matrix(
            self.ring, self.rows, self.cols, tuple(_scale(self.ring, c, r) for r in self.entries)
        )

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def column_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix(
            self.ring, self.rows, stop - start, tuple(r[start:stop] for r in self.entries)
        )

    def to_json(self) -> list[list[int | str]]:
        return [[self.ring.scalar_to_json(a) for a in row] for row in self.entries]


@lru_cache(maxsize=256)
def _identity(ring: Ring, n: int) -> Matrix:
    """The n×n identity over ``ring``, built once and shared."""
    return Matrix(ring, n, n, tuple(unit_vec(ring, n, i) for i in range(n)))


def stack_rows(ring: Ring, matrices: Sequence[Matrix], cols: int) -> Matrix:
    rows: list[tuple[Scalar, ...]] = []
    for m in matrices:
        if m.cols != cols:
            raise ValueError("dimension mismatch while stacking rows")
        rows.extend(m.entries)
    return Matrix(ring, len(rows), cols, tuple(rows))


def block_diagonal(ring: Ring, blocks: Sequence[Matrix]) -> Matrix:
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [[ring.zero] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.entries[i][j]
        r0 += b.rows
        c0 += b.cols
    return Matrix(ring, total_r, total_c, tuple(tuple(r) for r in out))


# -- echelon forms and what they buy us ------------------------------------


@dataclass(frozen=True)
class Echelon:
    """Row reduction record: ``transform @ original = reduced``.

    ``reduced`` has its nonzero rows first (RREF over a field, row Hermite
    form over Z), ``transform`` is invertible (unimodular over Z), and
    ``pivots`` lists the pivot column of each nonzero row.
    """

    reduced: Matrix
    transform: Matrix
    pivots: tuple[int, ...]


def row_echelon(a: Matrix) -> Echelon:
    """The echelon record of ``a``; an identity is its own reduced form and
    transform, with no elimination."""
    ring = a.ring
    if not ring.supports_elimination:
        raise UnsupportedRingError(
            f"row reduction needs a field or Z, not {ring.name} (composite modulus)"
        )
    if a.is_identity:
        return Echelon(a, a, tuple(range(a.rows)))
    if ring.kind == "Q":
        return _q_rref(a)
    if ring.is_field:
        return _rref(a)
    return _hermite(a)


def _rref(a: Matrix) -> Echelon:
    # Gauss-Jordan over F_p on [a | identity], so the transform rides along
    # in each row.  The pivot row of column c is zero left of c, so a row
    # operation only touches the pivot row's nonzero entries at or right of c.
    ring = a.ring
    p = ring.modulus
    n, width = a.cols, a.cols + a.rows
    zeros = [ring.zero] * a.rows
    m = [[*r, *zeros] for r in a.entries]
    for i, row in enumerate(m):
        row[n + i] = ring.one
    pivots: list[int] = []
    pr = 0
    for c in range(n):
        pivot_row = next((i for i in range(pr, a.rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        row = m[pr]
        support = [j for j in range(c, width) if row[j]]
        scale = pow(row[c], -1, p)
        for j in support:
            row[j] = scale * row[j] % p
        for i, other in enumerate(m):
            factor = other[c]
            if i == pr or not factor:
                continue
            for j in support:
                other[j] = (other[j] - factor * row[j]) % p
        pivots.append(c)
        pr += 1
        if pr == a.rows:
            break
    reduced = Matrix(ring, a.rows, a.cols, tuple(tuple(r[:n]) for r in m))
    transform = Matrix(ring, a.rows, a.rows, tuple(tuple(r[n:]) for r in m))
    return Echelon(reduced, transform, tuple(pivots))


def _q_rref(a: Matrix) -> Echelon:
    # The Gauss-Jordan loop of ``_rref`` over Q, with row i of
    # [a | identity] held as integer numerators nums[i] over one positive
    # denominator dens[i], both divided by their gcd after every update; the
    # rows start as copies of a's cached integer rows.  Pivot choice and
    # operation order are those of a ``Fraction`` loop, so every
    # intermediate row has the same rational values.
    ring, zero = a.ring, a.ring.zero
    n, width = a.cols, a.cols + a.rows
    nums: list[list[int]] = []
    dens: list[int] = []
    zeros = [0] * a.rows
    for i, (r, d) in enumerate(a.int_rows):
        row = [*r, *zeros]
        row[n + i] = d
        nums.append(row)
        dens.append(d)
    pivots: list[int] = []
    pr = 0
    for c in range(n):
        pivot_row = next((i for i in range(pr, a.rows) if nums[i][c]), None)
        if pivot_row is None:
            continue
        nums[pr], nums[pivot_row] = nums[pivot_row], nums[pr]
        dens[pr], dens[pivot_row] = dens[pivot_row], dens[pr]
        row = nums[pr]
        support = [j for j in range(c, width) if row[j]]
        # row / row[c] is row over the denominator row[c]: divide out the
        # gcd, signed so that the denominator is positive.
        g = gcd(*[row[j] for j in support])
        if row[c] < 0:
            g = -g
        if g != 1:
            for j in support:
                row[j] //= g
        lead = dens[pr] = row[c]
        for i, other in enumerate(nums):
            factor = other[c]
            if i == pr or not factor:
                continue
            # other - factor/dens[i] * row/lead, over dens[i] * lead
            if lead != 1:
                other = nums[i] = [x * lead for x in other]
                dens[i] *= lead
            for j in support:
                other[j] -= factor * row[j]
            e = dens[i]
            if e != 1:
                g = gcd(e, *other)
                if g != 1:
                    nums[i] = [x // g for x in other]
                    dens[i] = e // g
        pivots.append(c)
        pr += 1
        if pr == a.rows:
            break
    rows = tuple(zip(nums, dens))
    reduced = Matrix(ring, a.rows, a.cols, tuple(_from_common(r[:n], d, zero) for r, d in rows))
    transform = Matrix(ring, a.rows, a.rows, tuple(_from_common(r[n:], d, zero) for r, d in rows))
    return Echelon(reduced, transform, tuple(pivots))


def _hermite(a: Matrix) -> Echelon:
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
    reduced = Matrix(ring, a.rows, a.cols, tuple(tuple(r) for r in m))
    transform = Matrix(ring, a.rows, a.rows, tuple(tuple(r) for r in t))
    return Echelon(reduced, transform, tuple(pivots))


def rank(a: Matrix) -> int:
    return len(row_echelon(a).pivots)


def image_basis(a: Matrix) -> Matrix:
    """Echelon basis (field) or Hermite lattice basis (Z) of the row space {vA}."""
    ech = row_echelon(a)
    keep = ech.reduced.entries[: len(ech.pivots)]
    return Matrix(a.ring, len(keep), a.cols, keep)


def kernel_basis(a: Matrix) -> Matrix:
    """Echelonized basis of the left null space {v : vA = 0}."""
    ech = row_echelon(a)
    null_rows = ech.transform.entries[len(ech.pivots):]
    raw = Matrix(a.ring, len(null_rows), a.rows, null_rows)
    if raw.rows == 0 or raw.cols == 0:
        return raw
    return image_basis(raw)  # re-echelonize for a canonical result


def express_in_basis(basis: Matrix, target: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    """Coefficients c with c @ basis = target, or None.

    ``basis`` must be in echelon form (each row's leading entry strictly to
    the right of the previous row's).  Over Z the expression must be exact,
    so divisibility failures mean "not in the lattice".
    """
    ring = basis.ring
    if len(target) != basis.cols:
        raise ValueError(f"dimension mismatch: target length {len(target)} vs {basis.cols} cols")
    if ring.kind == "Q":
        return _q_express_in_basis(basis, target)
    field, p = ring.is_field, ring.modulus
    residue = tuple(target) if p is None else tuple(x % p for x in target)
    coeffs = []
    for row in basis.entries:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or not residue[lead]:
            coeffs.append(ring.zero)
            continue
        if field:
            c = residue[lead] * ring.inv(row[lead]) % p
        else:
            if residue[lead] % row[lead] != 0:
                return None
            c = residue[lead] // row[lead]
        coeffs.append(c)
        residue = vec_sub(ring, residue, _scale(ring, c, row))
    if not vec_is_zero(ring, residue):
        return None
    return tuple(coeffs)


def coordinates(basis: Matrix, m: Matrix) -> Matrix | None:
    """The matrix C with C @ basis = m, or None when a row of ``m`` is
    outside the row space (the lattice, over Z) of ``basis``.

    ``basis`` must be in echelon form, as for ``express_in_basis``, and row
    i of C is ``express_in_basis(basis, m.row(i))``.  Over a field a reduced
    basis has a 1 at each row's leading column and zeros above and below
    it, so C is ``m`` read at those columns, and one pass of dot products
    checks it (``_reads_back``).  The nonzero rows of an echelon basis are
    independent, so a C that passes is the only one.  When the check fails
    (the basis is not reduced, or ``m`` leaves the row space), and over Z,
    C is built row by row with ``express_in_basis``.
    """
    ring = basis.ring
    if m.ring != ring:
        raise ValueError(f"ring mismatch: {m.ring.name} vs {ring.name}")
    if m.cols != basis.cols:
        raise ValueError(f"dimension mismatch: rows of length {m.cols} vs {basis.cols} cols")
    if ring.is_field:
        leads = [next((j for j, x in enumerate(row) if x), None) for row in basis.entries]
        if _reads_back(basis, m, leads):
            zero = ring.zero
            read = tuple(tuple(zero if j is None else row[j] for j in leads) for row in m.entries)
            return Matrix(ring, m.rows, basis.rows, read)
    rows = []
    for row in m.entries:
        found = express_in_basis(basis, row)
        if found is None:
            return None
        rows.append(found)
    return Matrix(ring, m.rows, basis.rows, tuple(rows))


def _reads_back(basis: Matrix, m: Matrix, leads: Sequence[int | None]) -> bool:
    """Whether C @ basis == m, for C the entries of m at ``leads`` (0 for a
    zero row of ``basis``), over a field, without building C or the product.

    Over Z/p each entry is one dot product reduced mod p.  Over Q it runs on
    integers: with row i of m cached as nums/f and column k of ``basis`` as
    col/e, row i of C is nums[leads]/f, so entry (i, k) holds exactly when
    the dot product of nums[leads] and col equals nums[k]·e.
    """
    if basis.ring.kind == "Q":
        cols = basis.int_cols
        for nums, _ in m.int_rows:
            c = [0 if j is None else nums[j] for j in leads]
            if any(sum(map(mul, c, col)) != nums[k] * e for k, (col, e) in enumerate(cols)):
                return False
        return True
    p = basis.ring.modulus
    cols = tuple(zip(*basis.entries)) if basis.rows else ((),) * basis.cols
    for row in m.entries:
        c = [0 if j is None else row[j] for j in leads]
        if any(sum(map(mul, c, col)) % p != x for col, x in zip(cols, row)):
            return False
    return True


def _q_express_in_basis(basis: Matrix, target: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    # The residue is held as integer numerators over one positive
    # denominator, divided by their gcd after each step; the basis rows are
    # read from the basis's cached integer form.
    zero = basis.ring.zero
    target_nums, e = _common_denominator(target)
    residue = list(target_nums)
    coeffs = []
    for nums, d in basis.int_rows:
        lead = next((j for j, x in enumerate(nums) if x), None)
        if lead is None or not residue[lead]:
            coeffs.append(zero)
            continue
        r, s = residue[lead], nums[lead]
        coeffs.append(Fraction(r * d, e * s))
        # residue - (r/e)/(s/d) * nums/d, over the denominator e*|s|
        if s < 0:
            r, s = -r, -s
        if s != 1:
            residue = [x * s for x in residue]
            e *= s
        for j in range(lead, len(nums)):
            if nums[j]:
                residue[j] -= r * nums[j]
        if e != 1:
            g = gcd(e, *residue)
            if g != 1:
                residue = [x // g for x in residue]
                e //= g
    if any(residue):
        return None
    return tuple(coeffs)


def solve_row_system(a: Matrix, b: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    """Some v with v @ a = b, or None when b is outside the row space."""
    ech = row_echelon(a)
    lead = Matrix(a.ring, len(ech.pivots), a.cols, ech.reduced.entries[: len(ech.pivots)])
    coeffs = express_in_basis(lead, b)
    if coeffs is None:
        return None
    padded = list(coeffs) + [a.ring.zero] * (a.rows - len(coeffs))
    return vec_mat(padded, ech.transform)


def matrix_inverse(a: Matrix) -> Matrix | None:
    """Two-sided inverse, or None (over Z: exists iff a is unimodular)."""
    if a.rows != a.cols:
        return None
    ech = row_echelon(a)
    # the echelon form of an invertible matrix is the identity, over fields
    # (full-rank RREF) and over Z alike (a unimodular Hermite form)
    if len(ech.pivots) == a.rows and ech.reduced.is_identity:
        return ech.transform
    return None
