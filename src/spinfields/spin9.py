"""The nine Clifford generators on R^16 and the complex structures they span.

R^16 is treated as pairs (x, y) of octonions, R^2 (x) R^8.  Each generator
is one Kronecker word in a 2x2 signed permutation and an 8-dim one:

    I_1 = SWAP (x) Id_8          = [[0, Id], [Id, 0]]
    I_(1+u) = ROT (x) R_u        = [[0, -R_u], [R_u, 0]]   for u = i, ..., h
    I_9 = FLIP (x) Id_8          = [[Id, 0], [0, -Id]]

where R_u is right octonion multiplication by u.  They satisfy I^2 = Id and
pairwise anticommute, so every composition I_a I_b (a < b) is a complex
structure on R^16.  The eight J_a = I_a I_9 are the workhorses of the
vector-field construction.

Nothing here is hand-typed: the 8-dim factors come from the algebra module,
and the test suite pins the resulting 16x16 matrices against transcribed
golden copies.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebra import right_mult_matrix
from .sigperm import FLIP, SignedPerm, identity, kron

#: dimension of the representation
DIM = 16


#: [[0, 1], [1, 0]] and [[0, -1], [1, 0]], the 2x2 factors of I_1 and I_(1+u)
SWAP = SignedPerm(2, (1, 0), (1, 1))
ROT = SignedPerm(2, (1, 0), (1, -1))


@lru_cache(maxsize=None)
def generator(alpha: int) -> SignedPerm:
    """The alpha-th generator, 1 <= alpha <= 9."""
    if not 1 <= alpha <= 9:
        raise ValueError(f"generator index must be in 1..9, got {alpha}")
    if alpha == 1:
        return kron(SWAP, identity(8))
    if alpha == 9:
        return kron(FLIP, identity(8))
    return kron(ROT, right_mult_matrix(3, alpha - 1))


def spin9_basis() -> tuple[SignedPerm, ...]:
    """All nine generators, in order."""
    return tuple(generator(a) for a in range(1, 10))


@lru_cache(maxsize=None)
def complex_structure(alpha: int) -> SignedPerm:
    """J_alpha = I_alpha I_9, 1 <= alpha <= 8; skew with square -Id."""
    if not 1 <= alpha <= 8:
        raise ValueError(f"complex structure index must be in 1..8, got {alpha}")
    return generator(alpha) * generator(9)


def complex_structure_pair(alpha: int, beta: int) -> SignedPerm:
    """I_alpha I_beta for 1 <= alpha < beta <= 9 (36 in total)."""
    if not 1 <= alpha < beta <= 9:
        raise ValueError(f"need 1 <= alpha < beta <= 9, got ({alpha}, {beta})")
    return generator(alpha) * generator(beta)


def complex_structure_triple(alpha: int, beta: int, gamma: int) -> SignedPerm:
    """I_alpha I_beta I_gamma for strictly increasing indices (84 in total)."""
    if not 1 <= alpha < beta < gamma <= 9:
        raise ValueError(
            f"need 1 <= alpha < beta < gamma <= 9, got ({alpha}, {beta}, {gamma})"
        )
    return generator(alpha) * generator(beta) * generator(gamma)


def all_pairs() -> list[SignedPerm]:
    return [complex_structure_pair(a, b) for a, b in combinations(range(1, 10), 2)]


def all_triples() -> list[SignedPerm]:
    return [
        complex_structure_triple(a, b, c)
        for a, b, c in combinations(range(1, 10), 3)
    ]
