"""Hurwitz-Radon arithmetic and maximal tangent vector-field systems.

Every positive integer factors uniquely as m = (2k+1) * 2^p * 16^q with
0 <= p <= 3, and the sphere S^(m-1) carries exactly sigma(m) = 2^p + 8q - 1
pointwise linearly independent tangent vector fields.  This module builds
such a maximal system as signed-permutation matrices, each one a Kronecker
word in a few 16-dim and <= 8-dim factors (sigperm.kron), with the complex
structures J_a = I_a I_9 on R^16 and Z = I_9:

* 8q "level" fields, for t = 1..q and a = 1..8:

      B(t, a) = Id_(m / 16^t) (x) J_a (x) Z^(t-1)

* 2^p - 1 "left multiplication" fields, one per imaginary unit u of C, H
  or O, with L_u its left multiplication on R^(2^p):

      L(u) = Id_(2k+1) (x) L_u (x) Z^q

Z anticommutes with every J_a, so two words anticommute exactly when an
odd number of their slots do.  B(t, a) and B(t, b) differ in one slot;
B(s, a) and B(t, b) with s < t meet J_a against Z at slot s; L(u) meets
every B(t, a) at the slot where B has J_a and L has Z.  This is the
Clifford-module tensor construction behind the Hurwitz-Radon bound.  In the
diag/block form of the sigperm conj_* helpers, Id_16 (x) Z^(t-1) is the
conjugation Chat_t = conj_total(t) and Z^q is Chat_q C_q: without the
factor C_q = conj_base(q), L(u) fails to anticommute with the level-q
fields (tests include this negative witness at m = 512).

For q = 0 only the L words remain: complex, quaternion or octonion
multiplication acting diagonally on blocks of 2^p coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import sigperm
from .algebra import UNIT_LETTERS, left_mult_matrix
from .sigperm import SignedPerm, identity, kron
from .spin9 import complex_structure, generator


@dataclass(frozen=True)
class Decomposition:
    """m = (2k+1) * 2^p * 16^q with 0 <= p <= 3; unique for every m."""

    m: int
    k: int
    p: int
    q: int


def decompose(m: int) -> Decomposition:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    v = 0
    odd = m
    while odd % 2 == 0:
        odd //= 2
        v += 1
    q, p = divmod(v, 4)
    return Decomposition(m=m, k=(odd - 1) // 2, p=p, q=q)


def sigma(m: int) -> int:
    """Maximal number of linearly independent tangent fields on S^(m-1)."""
    d = decompose(m)
    return 2 ** d.p + 8 * d.q - 1


#: the generator I_9 of spin9; the conjugation slot of every word
Z = generator(9)


@lru_cache(maxsize=None)
def _level_tail(t: int, alpha: int) -> SignedPerm:
    # J_alpha (x) Z^(t-1), dimension 16^t: shared by every m with q >= t.
    return kron(complex_structure(alpha), *[Z] * (t - 1))


def level_field(q: int, t: int, alpha: int) -> SignedPerm:
    """Level-t field on R^(16^q): Id_(16^(q-t)) (x) J_alpha (x) Z^(t-1)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 1 <= t <= q:
        raise ValueError(f"level t must be in 1..q={q}, got {t}")
    if not 1 <= alpha <= 8:
        raise ValueError(f"alpha must be in 1..8, got {alpha}")
    return kron(identity(16 ** (q - t)), _level_tail(t, alpha))


#: imaginary-unit labels of the left-multiplication fields, per p
G_SET_UNITS = {p: UNIT_LETTERS[1 : 2 ** p] for p in range(4)}


def g_set(p: int) -> list[SignedPerm]:
    """Left multiplications by the imaginary units of C, H or O; empty for p=0."""
    if not 0 <= p <= 3:
        raise ValueError(f"p must be in 0..3, got {p}")
    return [left_mult_matrix(p, alpha) for alpha in range(1, 2 ** p)]


def lmult_field(k: int, p: int, q: int, g: SignedPerm) -> SignedPerm:
    """Left-multiplication field on R^((2k+1) 2^p 16^q), for g in g_set(p):
    Id_(2k+1) (x) g (x) Z^q."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 0 <= p <= 3:
        raise ValueError(f"p must be in 0..3, got {p}")
    if g.dim != 2 ** p:
        raise ValueError(f"g has dimension {g.dim}, expected 2^p = {2 ** p}")
    return kron(identity(2 * k + 1), g, *[Z] * q)


@dataclass(frozen=True)
class Field:
    """One tangent field: construction label plus its matrix."""

    label: str
    matrix: SignedPerm


@dataclass(frozen=True)
class FieldSystem:
    """Ordered system of sigma(m) anticommuting complex structures."""

    m: int
    fields: tuple[Field, ...]

    def __len__(self) -> int:
        return len(self.fields)

    def matrices(self) -> list[SignedPerm]:
        return [f.matrix for f in self.fields]

    def labels(self) -> list[str]:
        return [f.label for f in self.fields]


def build_system(m: int) -> FieldSystem:
    """Maximal system on S^(m-1): sigma(m) fields, empty for odd m.

    Ordering is fixed: level fields by (t, alpha) ascending, then the
    left-multiplication fields in unit order i, j, k, e, f, g, h.
    """
    d = decompose(m)
    if m % 2:
        return FieldSystem(m, ())
    words = [
        (f"B({t},{alpha})", [identity(m // 16 ** t), _level_tail(t, alpha)])
        for t in range(1, d.q + 1)
        for alpha in range(1, 9)
    ] + [
        (f"L({unit})", [identity(2 * d.k + 1), g] + [Z] * d.q)
        for unit, g in zip(G_SET_UNITS[d.p], g_set(d.p))
    ]
    fields = tuple(Field(label, kron(*word)) for label, word in words)
    assert len(fields) == sigma(m)
    return FieldSystem(m, fields)


def pair_system(m: int, beta: int) -> FieldSystem:
    """Alternative maximal systems from the compositions j_a = I_a I_beta,
    a != beta, on m = 16^q for q = 1, 2: the words of build_system with
    J_a replaced by j_a and Z by I_beta,

        B(t, a) = Id_(m / 16^t) (x) j_a (x) I_beta^(t-1).

    I_beta anticommutes with every j_a, which singles it out as the
    level-2 conjugation; beta = 9 gives build_system(m).
    """
    if m not in (16, 256):
        raise ValueError(f"pair systems are defined for m in {{16, 256}}, got {m}")
    if not 1 <= beta <= 9:
        raise ValueError(f"beta must be in 1..9, got {beta}")
    i_beta = generator(beta)
    pairs = [(a, generator(a) * i_beta) for a in range(1, 10) if a != beta]
    fields = tuple(
        Field(f"B({t},{a})", kron(identity(m // 16 ** t), j, *[i_beta] * (t - 1)))
        for t in range(1, decompose(m).q + 1)
        for a, j in pairs
    )
    return FieldSystem(m, fields)


def system_to_json(sys: FieldSystem) -> dict:
    d = decompose(sys.m)
    return {
        "m": sys.m,
        "sigma": sigma(sys.m),
        "decomposition": {"k": d.k, "p": d.p, "q": d.q},
        "fields": [
            {"label": f.label, "matrix": sigperm.to_sparse_json(f.matrix)}
            for f in sys.fields
        ],
    }


def system_from_json(obj: dict) -> FieldSystem:
    """Inverse of system_to_json, reading m and the fields; malformed input,
    including a field whose dim is not m, raises ValueError."""
    m = sigperm.json_value(obj, "m", int, "system")
    if m < 1:
        raise ValueError(f"system: m must be positive, got {m}")
    fields = []
    for i, f in enumerate(sigperm.json_value(obj, "fields", list, "system")):
        label = sigperm.json_value(f, "label", str, f"field {i}")
        matrix = sigperm.from_sparse_json(
            sigperm.json_value(f, "matrix", dict, f"field {i}")
        )
        if matrix.dim != m:
            raise ValueError(f"field {i}: dim {matrix.dim} != m = {m}")
        fields.append(Field(label, matrix))
    return FieldSystem(m, tuple(fields))
