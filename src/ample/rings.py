"""Exact coefficient rings and the dense exact linear algebra built on them.

Three kinds of coefficients are supported: the rationals Q (stdlib
fractions), the integers Z, and the modular rings Z/m.  A modular ring with
prime modulus is the field F_p and, like Q, supports the full linear-algebra
kit (echelon forms, kernels, row-space bases, coordinates, inversion).  Z is
handled fraction-free through Hermite row reduction, so integer inputs never
leave the integers.  Composite moduli offer arithmetic and equality only.

``Ring.coerce`` is the input boundary: ``Matrix.from_rows``,
``Ring.scalar_from_json`` and the scalar of ``Matrix.scaled`` turn outside
values into canonical elements (``Fraction`` over Q, ``int`` over Z,
``int`` in ``[0, m)`` over Z/m), and every ``Matrix`` holds only canonical
elements.  Shapes are checked at the same boundary and nowhere
else: ``Matrix.from_rows`` rejects ragged rows and rows that do not match
``cols``, and the document parser checks each declared matrix shape; the
plain ``Matrix(...)`` constructor is unchecked.  Past that boundary the
kernels (products, sums, echelon forms, ``coordinates``) run native ``int``
arithmetic picked once per call from the ring's modulus.  Over Z/m a
product reads its right operand as packed rows, each one integer of byte
slots wide enough that no slot carries (see ``_pack_rows``), built once per
matrix and held in its instance dict: a result row is one integer dot
product, decoded by one ``to_bytes`` and reduced through a 256-byte table
for 1-byte slots and slot by slot otherwise.  Over Q and Z, and for a
modulus whose slots would need more than 8 bytes, each result entry is its
own dot product.

Every matrix is one integer matrix over one denominator: ``Matrix.q_form``
is ``(numerators, d)`` with ``d`` positive and normalised, so equal
matrices have equal forms.  Off Q, ``d`` is 1 and the numerators are the
entries tuple itself, in ``[0, m)`` over Z/m; over Q the gcd of ``d`` and
every numerator is 1.  Every kernel reads the form and builds its result
around one, on one path for every ring; the ring is consulted only to
normalise (a reduction mod m over Z/m, a gcd pass over Q), to derive
``Fraction`` entries over Q, and in the eliminations and ``coordinates``.  So
over Q no ``Fraction`` is built until code reads ``entries``, which are
then derived once and kept, and a matrix constructed from entries derives
its form once, on first use.  Elimination visits only the nonzero entries
of each pivot row.

An identity skips the arithmetic: ``Matrix.is_identity`` compares the
numerators with the 0/1 rows of its size, which are the identity's over
every ring, so it needs no ring; a product with an identity operand
returns the other operand once the ring and shape checks pass, and
``row_echelon`` returns an identity as its own reduced form and transform.
Every elimination goes through one dispatch, ``_eliminate``, to the ring's
kernel: ``row_echelon`` (so ``kernel_basis`` and ``matrix_inverse``) runs
it on ``[a | identity]``, so no kernel builds a transform of its own, and
``image_basis`` (so ``rank``) on a's own rows, with no transform half.  A
coordinate projector (``projector_rows``: square, over 1, each row i zero
or row i of the identity) needs none: ``image_basis`` returns its nonzero
rows as they are.  A matrix keeps its image basis in its instance dict,
and the coordinates of its own rows in that basis with it.  A matrix that
``assemble`` builds from one block keeps that block: ``read_block`` returns
it for its own rows and columns, ``projector_rows`` reads an identity block
on the diagonal with no scan, and a product with it on the right
multiplies the block's rows alone.
``coordinates`` expresses every row of a matrix in a basis at once: in
unit rows (``unit_leads``) it reads columns (``read_block``); otherwise
over a field the basis must be reduced, and the coordinates are read off
its pivot columns and checked with one product; over Z the basis must be
in echelon form, and each row is found by exact division.

Conventions used throughout the library: vectors are rows, linear maps act
on the right (``v @ A``), and matrix products compose left to right, so
``A @ B`` means "apply A, then B".  All values are immutable and every
operation is deterministic: identical inputs give bit-identical outputs.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import add, mul, sub
from typing import Any, Iterable, Sequence

Scalar = Any  # int for Z and Z/m, Fraction for Q


class UnsupportedRingError(ValueError):
    """Raised when an operation needs a field or Z but got a composite modulus."""


@lru_cache(maxsize=256)
def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin on the primes up to 41, exact below
    3.317·10^24 (Sorenson and Webster, 2017).  From that bound on only a
    prime factor up to 41 decides: any other modulus raises ValueError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    if m >= 3317044064679887385961981:
        reason = "from 3.3e24 on, a modulus needs a prime factor up to 41"
        raise ValueError(f"modulus {m} is too large for the exact primality test: {reason}")
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s  # odd, and m - 1 = d·2^s
    # m is a strong probable prime to base b: b^d = 1, or b^(d·2^k) = -1 for some k < s
    return all(pow(b, d, m) == 1 or any(pow(b, d << k, m) == m - 1 for k in range(s)) for b in bases)


@dataclass(frozen=True)
class Ring:
    """A coefficient ring: kind is one of "Q", "Z", "mod" (with a modulus).

    Construction decides everything else once, as plain attributes: the
    hash, ``name``, ``zero``, ``one`` and the traits ``is_field`` and
    ``supports_elimination`` (a field, or Z: kernels, images and solving
    are available).  A modulus whose primality ``_is_prime`` cannot decide
    is refused.  ``modular`` and ``ring_from_name`` hand out one shared ring
    per modulus."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "Z", "mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "mod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise ValueError("modulus must be an integer of at least 2")
        elif self.modulus is not None:
            raise ValueError(f"ring {self.kind} takes no modulus")
        field = self.kind == "Q" or self.kind == "mod" and _is_prime(self.modulus)
        self.__dict__.update(
            _hash=hash((self.kind, self.modulus)),
            is_field=field,
            supports_elimination=field or self.kind == "Z",
            name=self.kind if self.modulus is None else f"{'Fp' if field else 'Zmod'}:{self.modulus}",
            zero=self.coerce(0),
            one=self.coerce(1),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[Any, ...]:
        # rebuilt by the constructor, so a loading process hashes it anew
        return Ring, (self.kind, self.modulus)

    # -- element arithmetic ------------------------------------------------

    def coerce(self, value: Any) -> Scalar:
        if isinstance(value, bool) or isinstance(value, float):
            raise ValueError(f"inexact or boolean scalar {value!r}")
        if self.kind == "Q":
            if value.__class__ is Fraction:
                return value
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise ValueError(f"cannot coerce {value!r} into Q")
        if not isinstance(value, int):
            raise ValueError(f"cannot coerce {value!r} into {self.name}")
        if self.kind == "mod":
            return value % self.modulus  # type: ignore[operator]
        return value

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


@lru_cache(maxsize=None, typed=True)
def modular(m: int) -> Ring:
    """Z/m, one shared ``Ring`` per modulus."""
    return Ring("mod", m)


def ring_from_name(name: str) -> Ring:
    """Parse a ring name: "Q", "Z", "Fp:<prime>", "Zmod:<m>" (alias "F<p>")."""
    text = name.strip()
    if text == "Q":
        return RATIONALS
    if text == "Z":
        return INTEGERS
    head, _, tail = text.partition(":")
    if head == "Zmod" and tail:
        return modular(_parse_modulus(text, tail))
    if head == "Fp" and tail:
        value, wanted = _parse_modulus(text, tail), "Fp modulus must be prime"
    elif text.startswith("F") and text[1:].isdecimal():
        value, wanted = _parse_modulus(text, text[1:]), "F<p> shorthand needs a prime"
    else:
        raise ValueError(f"unknown ring name {name!r} (expected Q, Z, Fp:<p> or Zmod:<m>)")
    if not modular(value).is_field:
        raise ValueError(f"{wanted}, got {value}")
    return modular(value)


# the interpreter's default limit on the digits int() reads from a string
_MODULUS_DIGITS = 4300


def _parse_modulus(full: str, tail: str) -> int:
    """The decimal digits ``tail`` of the ring name ``full`` as a modulus of
    at least 2, of at most ``_MODULUS_DIGITS`` digits."""
    if len(tail) > _MODULUS_DIGITS and tail.isdecimal():
        shown = full[: len(full) - len(tail) + 12] + "..."
        wanted = f"expected at most {_MODULUS_DIGITS} digits, got {len(tail)}"
        raise ValueError(f"bad modulus in ring name {shown!r}: {wanted}")
    if not tail.isdecimal() or int(tail) < 2:
        raise ValueError(f"bad modulus in ring name {full!r}: expected an integer of at least 2")
    return int(tail)


# -- block systems and integer products -------------------------------------


def intertwiner_constraints(
    ring: Ring, rows: int, cols: int, pairs: Sequence[tuple["Matrix", "Matrix"]]
) -> "Matrix":
    """The linear system of L·X = X·R over the pairs (L, R), for one
    rows×cols unknown X: one row per entry of X and one column per entry of
    each L·X - X·R, both row-major."""
    width = len(pairs) * rows * cols
    # every L and R is read as integers over one common denominator
    d = lcm(*(m.q_form[1] for pair in pairs for m in pair))
    grid = [[0] * width for _ in range(rows * cols)]
    col = 0
    for left, right in pairs:
        if (left.rows, left.cols, right.rows, right.cols) != (rows, rows, cols, cols):
            raise ValueError(f"pair does not fit a {rows}x{cols} unknown")
        rights = _nums_over(right, d)
        for i, left_row in enumerate(_nums_over(left, d)):
            for j in range(cols):
                for k, x in enumerate(left_row):
                    if x:
                        grid[k * cols + j][col] += x
                for l, right_row in enumerate(rights):
                    if right_row[j]:
                        grid[i * cols + l][col] -= right_row[j]
                col += 1
    return _normal(ring, rows * cols, width, grid, d)


def flatten_rows(ring: Ring, cols: int, rows: Sequence[Sequence["Matrix"]]) -> "Matrix":
    """The matrix whose row i is the matrices of ``rows[i]`` one after
    another, each row-major, ``cols`` entries in all."""
    d = lcm(*[m.q_form[1] for parts in rows for m in parts])
    flat = tuple([tuple([x for m in parts for row in _nums_over(m, d) for x in row]) for parts in rows])
    return _lowest(ring, len(rows), cols, flat, d)


def unflatten_rows(m: "Matrix", shapes: Sequence[tuple[int, int]]) -> list[list["Matrix"]]:
    """Each row of ``m`` cut into matrices of the (rows, cols) ``shapes`` in
    turn, each row-major: ``flatten_rows`` undone."""
    nums, d = m.q_form
    out = []
    for flat in nums:
        it = iter(flat)
        out.append([_lowest(m.ring, r, c, tuple([tuple(islice(it, c)) for _ in range(r)]), d)
                    for r, c in shapes])
    return out


def _products(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], cols: int, p: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows of ``left @ right`` for integer rows, ``right`` with ``cols``
    columns: one dot product per entry, reduced mod ``p`` unless it is None."""
    columns = tuple(zip(*right)) if right else ((),) * cols
    if p is None:
        return tuple([tuple([sum(map(mul, r, c)) for c in columns]) for r in left])
    return tuple([tuple([sum(map(mul, r, c)) % p for c in columns]) for r in left])


# unsigned array type codes by item size: 2, 4 and 8 bytes on every platform
_CODES = {array(code).itemsize: code for code in "HILQ"}


def _pack_rows(rows: tuple[tuple[int, ...], ...], m: int) -> tuple[int, tuple[int, ...]] | None:
    """The rows of a right operand over Z/m, each one integer of w-byte
    slots in native order, with w the smallest of 1, 2, 4 and 8 bytes that
    holds n·(m−1)², n the number of rows; None when 8 bytes do not.

    Each of the n terms of a product entry is at most (m−1)², so a left row
    times these integers sums no slot past w bytes: no slot carries."""
    bound, order = len(rows) * (m - 1) ** 2, sys.byteorder
    if bound < 256:
        return 1, tuple([int.from_bytes(bytes(row), order) for row in rows])
    for w in (2, 4, 8):
        if not bound >> 8 * w:
            code = _CODES[w]
            return w, tuple([int.from_bytes(array(code, row).tobytes(), order) for row in rows])
    return None


@lru_cache(maxsize=256)
def _residues(m: int) -> bytes:
    """The 256-byte table of ``x % m``, for ``bytes.translate``."""
    return bytes([x % m for x in range(256)])


def _mod_products(left: Sequence[Sequence[int]], right: "Matrix") -> tuple[tuple[int, ...], ...]:
    """The rows of ``left @ right`` over Z/m for rows ``left`` in [0, m).
    Where ``right`` packs, a result row is one dot product with its packed
    rows, decoded by one ``to_bytes`` and reduced through the byte table
    for 1-byte slots, slot by slot otherwise."""
    p, cols, held = right.ring.modulus, right.cols, right.__dict__
    if "_packs" not in held:  # kept in the instance dict, with no lock to take
        held["_packs"] = _pack_rows(right.q_form[0], p)
    packed = held["_packs"]
    if packed is None:
        return _products(left, right.q_form[0], cols, p)
    (w, packs), order = packed, sys.byteorder
    if w == 1:
        table = _residues(p)
        return tuple([tuple(sum(map(mul, r, packs)).to_bytes(cols, order).translate(table)) for r in left])
    code, size = _CODES[w], cols * w
    return tuple([tuple([x % p for x in memoryview(sum(map(mul, r, packs)).to_bytes(size, order)).cast(code)])
                  for r in left])


# -- the integer form -------------------------------------------------------------


def _q_form(entries: Sequence[Sequence[Scalar]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rationals as integer numerators over the lcm of their denominators,
    normalised: a prime dividing the lcm fully divides some entry's
    denominator, and not that entry's numerator, which is in lowest terms."""
    d = lcm(*[x.denominator for row in entries for x in row])
    if d == 1:
        return tuple([tuple([x.numerator for x in row]) for row in entries]), 1
    return tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in entries]), d


def _form(ring: Ring, entries: tuple[tuple[Scalar, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The normalised form of canonical entries: off Q, the entries over 1."""
    if ring.kind == "Q":
        return _q_form(entries)
    return entries, 1


def _entries(nums: tuple[tuple[int, ...], ...], d: int) -> tuple[tuple[Fraction, ...], ...]:
    """The ``Fraction`` entries of ``nums / d`` over Q; off Q a matrix
    always holds its entries."""
    zero = RATIONALS.zero
    return tuple([tuple([Fraction(x, d) if x else zero for x in row]) for row in nums])


def _held(ring: Ring, rows: int, cols: int, nums: tuple[tuple[int, ...], ...], d: int = 1) -> "Matrix":
    """The matrix ``nums / d``, trusted to be normalised; off Q ``nums`` is
    held as the entries too."""
    m, form = object.__new__(Matrix), (nums, d)
    object.__setattr__(m, "__dict__", {"ring": ring, "rows": rows, "cols": cols, "q_form": form}
                       if ring.kind == "Q" else
                       {"ring": ring, "rows": rows, "cols": cols, "q_form": form, "entries": nums})
    return m


def _lowest(ring: Ring, rows: int, cols: int, nums: tuple[tuple[int, ...], ...], d: int) -> "Matrix":
    """The matrix ``nums / d`` for numerators already reduced mod m over
    Z/m and any positive ``d`` (1 off Q), normalised by one gcd pass."""
    if d != 1:
        g = gcd(d, *[x for row in nums for x in row])
        if g != 1:
            d //= g
            nums = tuple([tuple([x // g for x in row]) for row in nums])
    return _held(ring, rows, cols, nums, d)


def _normal(ring: Ring, rows: int, cols: int, nums: Iterable[Iterable[int]], d: int = 1) -> "Matrix":
    """The matrix ``nums / d`` for any integer rows and positive ``d`` (1 off
    Q), normalised: each entry reduced mod m over Z/m, one gcd pass over Q."""
    p = ring.modulus
    if p is None:
        return _lowest(ring, rows, cols, tuple(map(tuple, nums)), d)
    return _held(ring, rows, cols, tuple([tuple([x % p for x in row]) for row in nums]))


def _nums_over(m: "Matrix", d: int) -> tuple[tuple[int, ...], ...]:
    """The numerators of ``m`` over ``d``, a multiple of its denominator."""
    nums, e = m.q_form
    if e == d:
        return nums
    s = d // e
    return tuple([tuple([s * x for x in row]) for row in nums])


# -- matrices --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense exact matrix; entries are row-major tuples over one ring.
    The constructor trusts its shape; ``from_rows`` is the checked one.

    ``q_form`` is the normalised integer form (see the module docstring).
    A kernel result holds its form, and over Q only its form until the
    entries are read; a constructed matrix holds only its entries until the
    form is read.  Either is then derived once and kept.  Equality and the
    hash compare the forms."""

    ring: Ring
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __getattr__(self, name: str) -> Any:
        # Only a missing ``q_form``, or a missing ``entries`` over Q, reaches here.
        held = self.__dict__
        if name == "q_form" and "entries" in held:
            value = _form(self.ring, held["entries"])
        elif name == "entries" and "q_form" in held:
            value = _entries(*held["q_form"])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        held[name] = value
        return value

    def _key(self) -> tuple[Any, ...]:
        return self.ring, self.rows, self.cols, self.q_form

    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if other.__class__ is not Matrix:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def from_rows(ring: Ring, rows: Sequence[Sequence[Any]], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(map(ring.coerce, row)) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError(f"every row must have {cols} entries")
        return Matrix(ring, len(data), cols, data)

    @staticmethod
    def from_ints(ring: Ring, rows: Sequence[Sequence[int]], cols: int, d: int = 1) -> "Matrix":
        """The matrix of the integer rows ``rows`` of length ``cols`` over ``d``
        (1 off Q), unchecked and normalised: reduced mod m over Z/m, and over
        Q held in its integer form, so no ``Fraction`` is built."""
        return _normal(ring, len(rows), cols, rows, d)

    @staticmethod
    @lru_cache(maxsize=256)
    def identity(ring: Ring, n: int) -> "Matrix":
        """The n×n identity over ``ring``, built once and shared."""
        return _held(ring, n, n, _identity_rows(n))

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix.from_ints(ring, ((0,) * cols,) * rows, cols)

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.q_form[0]))

    @property
    def is_identity(self) -> bool:
        # the corner test turns most other matrices away before the lookup
        n = self.rows
        if n != self.cols:
            return False
        if not n:
            return True
        nums, d = self.q_form
        return d == 1 and nums[0][0] == 1 and nums == _identity_rows(n)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product; an identity operand returns the other one unchanged.
        Each operand is tested as ``is_identity`` tests it, on the form the
        product reads."""
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise ValueError(f"ring mismatch: {ring.name} vs {other.ring.name}")
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        (left, d), n, k = self.q_form, self.rows, other.cols
        if n == self.cols and (not n or d == 1 and left[0][0] == 1 and left == _identity_rows(n)):
            return other
        right, e = other.q_form
        if k == other.rows and (not k or e == 1 and right[0][0] == 1 and right == _identity_rows(k)):
            return self
        if "_block" in other.__dict__:  # only the block's rows and columns of other are nonzero
            r, c, b = other._block
            part = tuple([row[r:r + b.rows] for row in left])
            if not b.is_identity:
                part = _products(part, b.q_form[0], b.cols) if ring.modulus is None else _mod_products(part, b)
                d *= b.q_form[1]
            zeros, rest = (0,) * c, (0,) * (k - c - b.cols)
            return _lowest(ring, n, k, tuple([zeros + row + rest for row in part]), d)
        if ring.modulus is None:
            return _lowest(ring, n, k, _products(left, right, k), d * e)
        return _held(ring, n, k, _mod_products(left, other))  # reduced, over 1

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op: Any, other: "Matrix") -> "Matrix":
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise ValueError(f"ring mismatch: {ring.name} vs {other.ring.name}")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        d = lcm(self.q_form[1], other.q_form[1])
        pairs = zip(_nums_over(self, d), _nums_over(other, d))
        return _normal(ring, self.rows, self.cols, [map(op, r, s) for r, s in pairs], d)

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, c: Any) -> "Matrix":
        """``c`` times the matrix; an ``int``, and over Q a ``Fraction``, is
        taken as it is, so no ``Fraction`` is built."""
        if c.__class__ is not int:
            c = self.ring.coerce(c)
        n = c.numerator
        nums, d = self.q_form
        scaled = [[n * x for x in row] for row in nums]
        return _normal(self.ring, self.rows, self.cols, scaled, d * c.denominator)

    def permuted_rows(self, order: Sequence[int]) -> "Matrix":
        """Row i is row ``order[i]``, for a permutation ``order``: no arithmetic."""
        nums, d = self.q_form
        return _held(self.ring, self.rows, self.cols, tuple([nums[k] for k in order]), d)

    def row_slice(self, start: int, stop: int) -> "Matrix":
        """Rows ``start`` to ``stop``, for 0 <= start <= stop <= rows."""
        return self._sliced(stop - start, self.cols, lambda rows: rows[start:stop])

    def column_slice(self, start: int, stop: int) -> "Matrix":
        return self._sliced(
            self.rows, stop - start, lambda rows: tuple(r[start:stop] for r in rows)
        )

    def _sliced(self, rows: int, cols: int, cut: Any) -> "Matrix":
        """The rows×cols matrix of ``cut`` applied to the numerator rows, over
        the same denominator."""
        nums, d = self.q_form
        return _lowest(self.ring, rows, cols, cut(nums), d)

    def to_json(self) -> list[list[int | str]]:
        return [[self.ring.scalar_to_json(a) for a in row] for row in self.entries]


@lru_cache(maxsize=256)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The 0/1 rows of the n×n identity: its numerators over Q, Z and
    every Z/m alike."""
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def assemble(ring: Ring, rows: int, cols: int, blocks: Iterable[tuple[int, int, Matrix]]) -> Matrix:
    """The rows×cols matrix holding each ``(r, c, block)`` of ``blocks`` with
    its top left entry at (r, c), and zeros elsewhere.  Blocks do not
    overlap.  One block is placed row by row between shared zeros, and the
    result keeps that ``(r, c, block)`` in its instance dict (``_block``)
    for ``read_block``, ``projector_rows`` and products to read."""
    blocks = tuple(blocks)
    if len(blocks) == 1:
        (r, c, b), = blocks
        nums, d = b.q_form
        zero, left, right = (0,) * cols, (0,) * c, (0,) * (cols - c - b.cols)
        placed = (zero,) * r + tuple([left + row + right for row in nums]) + (zero,) * (rows - r - b.rows)
        m = _held(ring, rows, cols, placed, d)
        m.__dict__["_block"] = blocks[0]
        return m
    # Each block is normalised, so its numerators over the lcm d of the
    # block denominators are too: a prime power dividing d fully divides
    # some block's denominator and, scaled by d over it, that block's
    # numerators keep one entry the prime does not divide.
    d = lcm(*[b.q_form[1] for _, _, b in blocks])
    grid = [[0] * cols for _ in range(rows)]
    for r, c, b in blocks:
        for i, row in enumerate(_nums_over(b, d)):
            grid[r + i][c: c + b.cols] = row
    return _held(ring, rows, cols, tuple(map(tuple, grid)), d)


def stack_rows(ring: Ring, matrices: Sequence[Matrix], cols: int) -> Matrix:
    placed, r = [], 0
    for m in matrices:
        if m.cols != cols:
            raise ValueError("dimension mismatch while stacking rows")
        placed.append((r, 0, m))
        r += m.rows
    return assemble(ring, r, cols, placed)


def block_diagonal(ring: Ring, blocks: Sequence[Matrix]) -> Matrix:
    placed, r, c = [], 0, 0
    for b in blocks:
        placed.append((r, c, b))
        r += b.rows
        c += b.cols
    return assemble(ring, r, c, placed)


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
    transform, with no elimination.  Otherwise ``_eliminate`` reduces
    ``[a | identity]`` (over a's denominator) on a's columns, and the two
    halves of the result are ``reduced`` and ``transform``."""
    if a.is_identity and a.ring.supports_elimination:
        return Echelon(a, a, tuple(range(a.rows)))
    n = a.cols
    start, d = a.q_form
    zeros = [0] * a.rows
    rows = [[*r, *zeros] for r in start]
    for i, row in enumerate(rows):
        row[n + i] = d
    pivots, e = _eliminate(a, rows)
    reduced = _lowest(a.ring, a.rows, n, tuple([tuple(r[:n]) for r in rows]), e)
    transform = _lowest(a.ring, a.rows, a.rows, tuple([tuple(r[n:]) for r in rows]), e)
    return Echelon(reduced, transform, tuple(pivots))


def _eliminate(a: Matrix, rows: list[list[int]]) -> tuple[list[int], int]:
    """Reduce ``rows``, the numerators of ``a`` over its denominator, each
    possibly extended to the right, in place with the ring's kernel on a's
    columns; returns the pivot columns and the denominator e (1 off Q) that
    every row is then over.  Pivot choice and operation order read a's
    columns alone, so those columns reach the same values however far the
    rows extend."""
    ring = a.ring
    if not ring.supports_elimination:
        raise UnsupportedRingError(
            f"row reduction needs a field or Z, not {ring.name} (composite modulus)"
        )
    if ring.kind != "Q":
        return (_rref(rows, a.cols, ring.modulus) if ring.is_field else _hermite(rows, a.cols)), 1
    dens = [a.q_form[1]] * len(rows)
    pivots = _q_rref(rows, dens, a.cols)
    e = lcm(*dens)
    for i, f in enumerate(dens):
        if f != e:
            rows[i] = [x * (e // f) for x in rows[i]]
    return pivots, e


def _rref(m: list[list[int]], limit: int, p: int) -> list[int]:
    # Gauss-Jordan over F_p on the first ``limit`` columns of the rows of m,
    # in place; returns the pivot columns.  The pivot row of column c is
    # zero left of c, so a row operation only touches the pivot row's
    # nonzero entries at or right of c.
    pivots: list[int] = []
    pr = 0
    for c in range(limit):
        pivot_row = next((i for i in range(pr, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        row = m[pr]
        support = [j for j in range(c, len(row)) if row[j]]
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
        if pr == len(m):
            break
    return pivots


def _q_rref(nums: list[list[int]], dens: list[int], limit: int) -> list[int]:
    # The Gauss-Jordan loop of ``_rref`` over Q, in place, with row i held
    # as integer numerators nums[i] over one positive denominator dens[i],
    # both divided by their gcd after every update.  Pivot choice and
    # operation order are those of a ``Fraction`` loop, so every
    # intermediate row has the same rational values.
    pivots: list[int] = []
    pr = 0
    for c in range(limit):
        pivot_row = next((i for i in range(pr, len(nums)) if nums[i][c]), None)
        if pivot_row is None:
            continue
        nums[pr], nums[pivot_row] = nums[pivot_row], nums[pr]
        dens[pr], dens[pivot_row] = dens[pivot_row], dens[pr]
        row = nums[pr]
        support = [j for j in range(c, len(row)) if row[j]]
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
        if pr == len(nums):
            break
    return pivots


def _hermite(m: list[list[int]], limit: int) -> list[int]:
    # Fraction-free row Hermite form on the first ``limit`` columns of the
    # rows of m, in place: pivots positive, entries above a pivot reduced
    # into [0, pivot), every row operation unimodular.  Returns the pivot
    # columns.
    pivots: list[int] = []
    pr = 0
    for c in range(limit):
        if pr == len(m):
            break
        if all(m[i][c] == 0 for i in range(pr, len(m))):
            continue
        # gcd cascade on column c among rows >= pr
        while True:
            nonzero = [i for i in range(pr, len(m)) if m[i][c] != 0]
            i0 = min(nonzero, key=lambda i: (abs(m[i][c]), i))
            m[pr], m[i0] = m[i0], m[pr]
            done = True
            for i in range(pr + 1, len(m)):
                if m[i][c] != 0:
                    q = m[i][c] // m[pr][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[pr])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[pr][c] < 0:
            m[pr] = [-x for x in m[pr]]
        for i in range(pr):
            q = m[i][c] // m[pr][c]
            if q != 0:
                m[i] = [x - q * y for x, y in zip(m[i], m[pr])]
        pivots.append(c)
        pr += 1
    return pivots


def rank(a: Matrix) -> int:
    return image_basis(a).rows


def image_basis(a: Matrix) -> Matrix:
    """Echelon basis (field) or Hermite lattice basis (Z) of the row space
    {vA}, found once and kept in ``a``'s instance dict: a coordinate
    projector's nonzero rows (``projector_rows``), with no elimination, and
    otherwise the nonzero rows ``_eliminate`` leaves of a's own rows."""
    held = a.__dict__
    if "_image" not in held:  # kept as ``_packs`` is, with no lock to take
        kept = projector_rows(a) if a.ring.supports_elimination else None
        rows, e = a.q_form
        if kept is None:
            rows = [list(r) for r in rows]
            pivots, e = _eliminate(a, rows)
            kept = range(len(pivots))
        held["_image"] = _lowest(a.ring, len(kept), a.cols, tuple([tuple(rows[i]) for i in kept]), e)
    return held["_image"]


def projector_rows(a: Matrix) -> tuple[int, ...] | None:
    """The indices of the nonzero rows of ``a`` when it is a coordinate
    projector: square, over the denominator 1, every row i either zero or
    row i of the identity.  None for any other matrix."""
    n, (rows, d) = a.rows, a.q_form
    if n != a.cols or d != 1:
        return None
    if "_block" in a.__dict__:  # an identity block on the diagonal, zeros elsewhere
        r, c, b = a._block
        if r == c and b.is_identity:
            return tuple(range(r, r + b.rows))
    kept = []
    for i, row in enumerate(rows):
        zeros = row.count(0)
        if zeros == n - 1 and row[i] == 1:
            kept.append(i)
        elif zeros != n:
            return None
    return tuple(kept)


def read_block(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix | None:
    """The rows ``rows`` of ``a`` read at the columns ``cols``, normalised,
    or None when one of those rows has a nonzero entry off ``cols``: the
    coordinates of those rows in the unit rows at ``cols``.  A kept block
    (see ``assemble``) read at exactly its own rows and columns is returned
    as it is, and consecutive columns are read with one slice per row."""
    if "_block" in a.__dict__:
        r, c, b = a._block
        if tuple(rows) == tuple(range(r, r + b.rows)) and tuple(cols) == tuple(range(c, c + b.cols)):
            return b
    nums, d = a.q_form
    lo = cols[0] if cols else 0
    hi = lo + len(cols) if tuple(cols) == tuple(range(lo, lo + len(cols))) else None
    read = []
    for i in rows:
        row = nums[i]
        cut = row[lo:hi] if hi is not None else tuple([row[j] for j in cols])
        if len(row) - row.count(0) != len(cut) - cut.count(0):
            return None
        read.append(cut)
    return _lowest(a.ring, len(read), len(cols), tuple(read), d)


def unit_leads(basis: Matrix) -> tuple[int, ...] | None:
    """The column of each row's one nonzero entry, 1 over the denominator
    1, when those columns increase; None for any other ``basis``."""
    rows, d = basis.q_form
    leads = [-1]
    for row in rows:
        if d != 1 or 1 not in row or row.index(1) <= leads[-1] or row.count(0) != len(row) - 1:
            return None
        leads.append(row.index(1))
    return tuple(leads[1:])


def kernel_basis(a: Matrix) -> Matrix:
    """Echelonized basis of the left null space {v : vA = 0}."""
    ech = row_echelon(a)
    raw = ech.transform.row_slice(len(ech.pivots), a.rows)
    if raw.rows == 0 or raw.cols == 0:
        return raw
    return image_basis(raw)  # re-echelonize for a canonical result


def coordinates(basis: Matrix, m: Matrix) -> Matrix | None:
    """The matrix C with C @ basis = m, or None when a row of ``m`` is
    outside the row space (the lattice, over Z) of ``basis``.

    In a basis of unit rows (``unit_leads``), C is ``m`` read at their
    leads (``read_block``).  Otherwise over a field ``basis`` must be a
    reduced echelon basis, as ``image_basis`` returns, possibly with zero
    rows: a 1 at each nonzero row's leading column and zeros above and
    below it.  C is then ``m`` read at those columns, and one product
    checks it; a row outside the row space fails the check, and the
    nonzero rows are independent, so a C that passes is the only one.
    Over Z ``basis`` must be in echelon form (each row's leading entry
    strictly right of the previous row's), and each row of C is found by
    exact division.

    Given the very basis ``image_basis(m)`` keeps (``is``, not ``==``), C
    is found once and kept with it in m's instance dict.
    """
    held = m.__dict__
    if held.get("_image") is not basis:
        return _coordinates(basis, m)
    if "_image_coords" not in held:
        held["_image_coords"] = _coordinates(basis, m)
    return held["_image_coords"]


def _coordinates(basis: Matrix, m: Matrix) -> Matrix | None:
    """``coordinates``, always computed."""
    ring = basis.ring
    if m.ring is not ring and m.ring != ring:
        raise ValueError(f"ring mismatch: {m.ring.name} vs {ring.name}")
    if m.cols != basis.cols:
        raise ValueError(f"dimension mismatch: rows of length {m.cols} vs {basis.cols} cols")
    if not ring.supports_elimination:
        raise UnsupportedRingError(f"coordinates need a field or Z, not {ring.name} (composite modulus)")
    leads = unit_leads(basis)
    if leads is not None:
        return read_block(m, range(m.rows), leads)
    brows, e = basis.q_form
    leads = [next((j for j, x in enumerate(row) if x), None) for row in brows]
    mrows, f = m.q_form
    if ring.is_field:
        # with basis as B/e and m as M/f (e = f = 1 off Q), C is M read at
        # the leads over f, and C @ basis = m exactly when that read @ B = M·e
        read = tuple([tuple([0 if j is None else row[j] for j in leads]) for row in mrows])
        want = mrows if e == 1 else tuple([tuple([x * e for x in row]) for row in mrows])
        got = _products(read, brows, basis.cols) if ring.modulus is None else _mod_products(read, basis)
        if got != want:
            return None
        return _lowest(ring, m.rows, basis.rows, read, f)
    rows = []
    for row in mrows:
        found = _express(brows, leads, row)
        if found is None:
            return None
        rows.append(found)
    return _held(ring, m.rows, basis.rows, tuple(rows))


def _express(basis: tuple[tuple[int, ...], ...], leads: list, target: tuple[int, ...]) -> tuple[int, ...] | None:
    """One row of ``coordinates`` over Z: ``target`` reduced against the
    echelon rows of ``basis``, leads ``leads``, in turn by exact division,
    or None when a division leaves a remainder or a residue remains."""
    residue, coeffs = target, []
    for row, lead in zip(basis, leads):
        if lead is None or not residue[lead]:
            coeffs.append(0)
            continue
        if residue[lead] % row[lead] != 0:
            return None
        c = residue[lead] // row[lead]
        coeffs.append(c)
        residue = [x - c * y for x, y in zip(residue, row)]
    return None if any(residue) else tuple(coeffs)


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
