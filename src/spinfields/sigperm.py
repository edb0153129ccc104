"""Exact signed-permutation (monomial +/-1) matrices and their Kronecker products.

A :class:`SignedPerm` of dimension m stores, for each column j, the row
``image[j]`` of its unique nonzero entry and that entry's sign.  As a matrix:
``M[image[j], j] = sign[j]``, zero elsewhere.  All such matrices are
orthogonal, compose in O(m), and apply to a vector in exactly m scalar moves.

Internally indices are 0-based; anything displayed to humans uses 1-based
labels.  The column-map convention means ``apply`` scatters:
``(M v)[image[j]] = sign[j] * v[j]``, i.e. ordinary matrix-times-column-vector
semantics.

:func:`kron` is the one place that materializes a larger matrix from smaller
ones.  The diagonal and block extensions and the conjugations are Kronecker
products with identities and sign flips; they state the paper's lemmas in
the tests, and no construction goes through them.

:class:`DenseMatrix` is the quadratic brute-force oracle used by the tests;
it never appears on a production path.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class SignedPerm:
    """Monomial matrix with entries in {+1, -1}, one per row and column."""

    __slots__ = ("dim", "image", "sign")

    def __init__(self, dim: int, image: Sequence[int], sign: Sequence[int]):
        image = tuple(image)
        sign = tuple(sign)
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        if len(image) != dim or len(sign) != dim:
            raise ValueError(
                f"image/sign length must equal dim={dim}, "
                f"got {len(image)}/{len(sign)}"
            )
        seen = [False] * dim
        for r in image:
            if not 0 <= r < dim or seen[r]:
                raise ValueError("image is not a permutation of 0..dim-1")
            seen[r] = True
        if any(s != 1 and s != -1 for s in sign):
            raise ValueError("signs must be +1 or -1")
        self.dim = dim
        self.image = image
        self.sign = sign

    @classmethod
    def _raw(cls, dim: int, image: tuple[int, ...], sign: tuple[int, ...]) -> SignedPerm:
        # Fast path for internal constructions that are valid by construction.
        self = object.__new__(cls)
        self.dim = dim
        self.image = image
        self.sign = sign
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedPerm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.image == other.image
            and self.sign == other.sign
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.image, self.sign))

    def __neg__(self) -> SignedPerm:
        return SignedPerm._raw(self.dim, self.image, tuple(-s for s in self.sign))

    def __mul__(self, other: SignedPerm) -> SignedPerm:
        """Matrix product self @ other, in O(m)."""
        if not isinstance(other, SignedPerm):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        ai, asg = self.image, self.sign
        bi, bsg = other.image, other.sign
        image = tuple(ai[r] for r in bi)
        sign = tuple(asg[bi[j]] * bsg[j] for j in range(self.dim))
        return SignedPerm._raw(self.dim, image, sign)

    def transpose(self) -> SignedPerm:
        """Transpose (= inverse, by orthogonality)."""
        image = [0] * self.dim
        sign = [0] * self.dim
        for j, r in enumerate(self.image):
            image[r] = j
            sign[r] = self.sign[j]
        return SignedPerm._raw(self.dim, tuple(image), tuple(sign))

    def apply(self, v: Sequence[Scalar]) -> list[Scalar]:
        """Multiply onto a column vector: m scalar moves, negation only."""
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != dimension {self.dim}")
        out = [0] * self.dim
        image, sign = self.image, self.sign
        for j, vj in enumerate(v):
            out[image[j]] = vj if sign[j] > 0 else -vj
        return out

    def is_skew(self) -> bool:
        """A^T = -A.  For a signed permutation A^T = A^-1, so this is also
        the test A^2 = -Id: with signs +-1, s_i = -s_j iff s_i * s_j = -1."""
        image, sign = self.image, self.sign
        return all(
            image[image[j]] == j and sign[image[j]] == -sign[j]
            for j in range(self.dim)
        )

    squares_to_minus_id = is_skew

    def anticommutes(self, other: SignedPerm) -> bool:
        """Exact check of self*other == -(other*self), column by column: with
        self e_j = s e_a and other e_j = t e_b, the two products send e_j to
        t self.sign[b] e_(self.image[b]) and s other.sign[a] e_(other.image[a])."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        ai, asg = self.image, self.sign
        bi, bsg = other.image, other.sign
        return all(
            ai[b] == bi[a] and asg[b] * t == -bsg[a] * s
            for a, s, b, t in zip(ai, asg, bi, bsg)
        )

    def __repr__(self) -> str:
        return f"SignedPerm(dim={self.dim}, image={self.image}, sign={self.sign})"


def identity(dim: int) -> SignedPerm:
    return SignedPerm._raw(dim, tuple(range(dim)), (1,) * dim)


@lru_cache(maxsize=4)
def _indices(dim: int) -> tuple[int, ...]:
    # One shared tuple of row indices per dimension: kron picks its images
    # from it, so the fields of a system share their int objects.
    return tuple(range(dim))


def _kron2(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    if b.dim == 1 and b.sign[0] == 1:
        return a
    if a.dim == 1 and a.sign[0] == 1:
        return b
    n = b.dim
    dim = a.dim * n
    rows = _indices(dim)
    # itemgetter of a single index returns the item, not a 1-tuple
    pick = operator.itemgetter(*b.image) if n > 1 else tuple
    neg = tuple(-s for s in b.sign)
    image: list[int] = []
    sign: list[int] = []
    for r, s in zip(a.image, a.sign):
        off = r * n
        image += pick(rows[off : off + n])
        sign += b.sign if s > 0 else neg
    return SignedPerm._raw(dim, tuple(image), tuple(sign))


def kron(first: SignedPerm, *rest: SignedPerm) -> SignedPerm:
    """Kronecker product a (x) b (x) ...: entry (r*n + r', c*n + c') of
    a (x) b is a[r, c] * b[r', c'] for n = b.dim."""
    return reduce(_kron2, rest, first)


def diag_ext(a: SignedPerm, n: int) -> SignedPerm:
    """n diagonal copies of a, acting blockwise on (R^m)^n: Id_n (x) a."""
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    return kron(identity(n), a)


def block_ext(a: SignedPerm, n: int) -> SignedPerm:
    """Replace each entry of a by that entry times Id_n: a (x) Id_n."""
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    return kron(a, identity(n))


#: diag(1, -1); conj_base(1) = FLIP (x) Id_8 is the generator I_9 of spin9
FLIP = SignedPerm(2, (0, 1), (1, -1))


def conj_base(s: int) -> SignedPerm:
    """The conjugation on R^(16^s) negating the second half of coordinates."""
    if s < 1:
        raise ValueError(f"conjugation order must be >= 1, got {s}")
    return kron(FLIP, identity(16 ** s // 2))


def conj_level(q: int, t: int) -> SignedPerm:
    """Diagonal extension of conj_base(t) to R^(16^q), for 1 <= t <= q-1."""
    if not 1 <= t <= q - 1:
        raise ValueError(f"need 1 <= t <= q-1, got t={t}, q={q}")
    return diag_ext(conj_base(t), 16 ** (q - t))


def conj_total(t: int) -> SignedPerm:
    """Product of the level conjugations inside R^(16^t), which is
    Chat_t = Id_16 (x) Z^(t-1) for Z = conj_base(1); identity at t = 1."""
    if t < 1:
        raise ValueError(f"conjugation order must be >= 1, got {t}")
    return kron(identity(16), *[conj_base(1)] * (t - 1))


class DenseMatrix:
    """Dense exact matrix; the brute-force oracle for the signed-perm kernel."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        self.rows = tuple(tuple(r) for r in rows)
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise ValueError("matrix must be square")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return DenseMatrix(
            tuple(x + y for x, y in zip(r, s))
            for r, s in zip(self.rows, other.rows)
        )

    def __neg__(self) -> DenseMatrix:
        return DenseMatrix(tuple(-x for x in r) for r in self.rows)

    def __mul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        out = []
        for row in self.rows:
            acc = [0] * self.dim
            # row combination: sum over nonzero row[k] of row[k] * other row k
            for x, brow in zip(row, other.rows):
                if x:
                    acc = [c + x * y for c, y in zip(acc, brow)]
            out.append(acc)
        return DenseMatrix(out)

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(zip(*self.rows))

    def apply(self, v: Sequence[Scalar]) -> list[Scalar]:
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != dimension {self.dim}")
        return [sum(x * y for x, y in zip(row, v)) for row in self.rows]

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)


def to_dense(a: SignedPerm) -> DenseMatrix:
    rows = [[0] * a.dim for _ in range(a.dim)]
    for j in range(a.dim):
        rows[a.image[j]][j] = a.sign[j]
    return DenseMatrix(rows)


def from_dense(d: DenseMatrix) -> SignedPerm:
    """Recover a SignedPerm from its dense form; reject non-monomial input."""
    dim = d.dim
    image = [-1] * dim
    sign = [0] * dim
    for r, row in enumerate(d.rows):
        for c, x in enumerate(row):
            if x == 0:
                continue
            if x != 1 and x != -1:
                raise ValueError(f"entry at ({r}, {c}) is {x}, not in {{-1,0,1}}")
            if image[c] != -1:
                raise ValueError(f"column {c} has more than one nonzero entry")
            image[c] = r
            sign[c] = int(x)
    if any(r == -1 for r in image):
        raise ValueError("some column has no nonzero entry")
    return SignedPerm(dim, tuple(image), tuple(sign))


def to_sparse_json(a: SignedPerm) -> dict:
    """Stable sparse form: cols listed in column order."""
    return {
        "dim": a.dim,
        "cols": [
            {"row": a.image[j], "sign": a.sign[j]} for j in range(a.dim)
        ],
    }


def json_value(obj: object, key: str, kind: type, where: str):
    """obj[key] of a parsed JSON object, checked to be a kind (a bool is not
    an int); ValueError naming where otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def from_sparse_json(obj: dict) -> SignedPerm:
    """Inverse of to_sparse_json; malformed input raises ValueError."""
    dim = json_value(obj, "dim", int, "matrix")
    cols = json_value(obj, "cols", list, "matrix")
    if len(cols) != dim:
        raise ValueError(f"expected {dim} columns, got {len(cols)}")
    return SignedPerm(
        dim,
        tuple(json_value(c, "row", int, f"column {j}") for j, c in enumerate(cols)),
        tuple(json_value(c, "sign", int, f"column {j}") for j, c in enumerate(cols)),
    )


def to_dense_csv(a: SignedPerm) -> str:
    """m rows of m comma-separated integers in {-1, 0, 1}."""
    lines = []
    for r in range(a.dim):
        row = ["0"] * a.dim
        lines.append(row)
    for j in range(a.dim):
        lines[a.image[j]][j] = str(a.sign[j])
    return "\n".join(",".join(row) for row in lines) + "\n"


def display(a: SignedPerm, names: Sequence[str] | None = None) -> str:
    """One-line action on symbolic coordinates, e.g. "(-s2, s1)"."""
    if names is None:
        names = [f"s{i + 1}" for i in range(a.dim)]
    out = [""] * a.dim
    for j in range(a.dim):
        out[a.image[j]] = ("-" if a.sign[j] < 0 else "") + names[j]
    return "(" + ", ".join(out) + ")"
