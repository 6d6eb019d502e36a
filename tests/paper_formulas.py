"""The paper's per-pair cloning amplitudes, the reference the tests hold the
library's table to.

The library keeps every squared amplitude of a cell as one integer
occupancy table times one Fraction prefactor (cloner.clone_amplitudes);
these give one (input, added) pair at a time, exactly, as the paper states
them.
"""

import math
from fractions import Fraction

from symclone.symspace import InvalidParameterError, composition


def alpha_qubit_sq(j: int, k: int, m: int, l: int) -> Fraction:
    """Exact squared amplitude for two-level systems.

    alpha^2 = (l-m)! (m+1)! (l-j-k)! (j+k)! / [(l+1)! (l-m-k)! (m-j)! j! k!]
    where j counts input particles in level 1 and k counts added ones.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    if not 0 <= j <= m:
        raise InvalidParameterError(f"j must be in [0, {m}], got {j}")
    if not 0 <= k <= l - m:
        raise InvalidParameterError(f"k must be in [0, {l - m}], got {k}")
    f = math.factorial
    return Fraction(
        f(l - m) * f(m + 1) * f(l - j - k) * f(j + k),
        f(l + 1) * f(l - m - k) * f(m - j) * f(j) * f(k),
    )


def alpha_d_sq(j, k, m: int, l: int) -> Fraction:
    """Exact squared amplitude for d-level systems.

    alpha^2 = (l-m)! (m+d-1)! / (l+d-1)!  *  prod_i C(j_i + k_i, k_i)
    with j the input counts (weight m) and k the added counts (weight
    l - m).  Reduces to alpha_qubit_sq at d = 2.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    j, k = composition(j), composition(k)
    if len(j) != len(k):
        raise InvalidParameterError(f"level-count mismatch: {len(j)} vs {len(k)}")
    if sum(j) != m:
        raise InvalidParameterError(f"input composition has weight {sum(j)}, expected {m}")
    if sum(k) != l - m:
        raise InvalidParameterError(f"added composition has weight {sum(k)}, expected {l - m}")
    d = len(j)
    # the factorial prefactor is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    prefactor = Fraction(1, math.comb(l + d - 1, l - m))
    return prefactor * math.prod(math.comb(a + b, b) for a, b in zip(j, k))
