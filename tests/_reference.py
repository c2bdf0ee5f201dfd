"""Plain-Python references the tests hold the package's fast paths against.

Permutation algebra on one-line maps, the independent reference for the
numpy commutator kernel `oracle._commutator_counts`.  A one-line map is a
sequence m of range(M) with m[i] the image of i, such as `Permutation.map`.  `sample_uniform` draws one
permutation per rng.shuffle, the per-draw reference for the block sampler
of `commcycles sample`.

Exact-law readers on coefficient lists of `fractions.Fraction` (index =
degree), one Fraction per coefficient, as `RationalPoly.coeffs` gives them:
the references for the integer-numerator rendering, composition, PGF
validation and Bernoulli reconstruction in `polys` and `genfun`.

Earlier forms of four closed-form routines, each doing its work the long
way: the phase equation of the one-cycle roots by plain bisection, the
two-cycles law from three separately built rows of rising factorials, the
transpositions law as its product of factors in t^2, and an exact Bernoulli
reconstruction by one `RationalPoly` product per term.

The complex samples of tr(G²) on the substreams of the "tr_g_squared"
identity, from the package's own draw driver and Ginibre kernel: the
values whose |·|^(2M) `rmt.mc_tr_g_squared_law` averages, and whose phase
the tests check for rotational symmetry.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from commcycles import rmt
from commcycles.perm import Permutation
from commcycles.polys import RationalPoly, rising_falling_sum, rising_square_sum


def compose(a, b):
    """a∘b, i.e. apply b first: result[i] = a[b[i]]."""
    return tuple(a[j] for j in b)


def inverse(a):
    """a⁻¹, which sends a[i] to i."""
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def conjugate(s, t):
    """The conjugate s∘t∘s⁻¹, which sends s[i] to s[t[i]]."""
    out = [0] * len(s)
    for i, ti in enumerate(t):
        out[s[i]] = s[ti]
    return tuple(out)


def conjugacy_class(t):
    """Every conjugate s∘t∘s⁻¹ of a one-line map t, once each, in lexicographic order."""
    return sorted({conjugate(s, t) for s in itertools.permutations(range(len(t)))})


def orbit_count(mapping):
    """Number of orbits of a bijection given in one-line notation."""
    seen = [False] * len(mapping)
    count = 0
    for start in range(len(mapping)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = mapping[j]
    return count


def commutator_cycle_count(s, t):
    """C([s,t]), the cycle count of s∘t∘s⁻¹∘t⁻¹, from one list: [s,t]
    sends t[s[i]] to s[t[i]]."""
    comm = [0] * len(s)
    for si, ti in zip(s, t):
        comm[t[si]] = s[ti]
    return orbit_count(comm)


def sample_uniform(size, rng):
    """Uniformly random permutation of range(size) by rng.shuffle (Fisher-Yates).
    `sampling._shuffle_rows` must give the same permutations from the same rng."""
    if size < 1:
        raise ValueError("size must be positive")
    vals = list(range(size))
    rng.shuffle(vals)
    return Permutation(vals)


# -- exact laws, one Fraction per coefficient ----------------------------------


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def probabilities(pgf):
    """Nonzero probabilities of a CyclePGF as Fractions, keyed by cycle count."""
    return {k: c for k, c in enumerate(pgf.poly.coeffs) if c}


def mean(pgf):
    """Expected cycle count of a CyclePGF, sum_k k P(C = k), as a Fraction."""
    return sum(k * c for k, c in enumerate(pgf.poly.coeffs))


def coeff_strings(coeffs):
    """Each coefficient as "num/den" in lowest terms."""
    return [f"{c.numerator}/{c.denominator}" for c in coeffs]


def pretty(coeffs, var="t"):
    """Highest degree first: "t^2 - 1/2*t + 2"; "0" for no coefficients."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def poly_compose(outer, inner):
    """Coefficients of outer(inner(X)), by Horner on Fraction lists."""
    acc = []
    for c in reversed(outer):
        acc = _times(acc, inner) or [Fraction(0)]
        acc[0] += c
    return _strip(acc)


def pgf_flags(coeffs, parity):
    """(normalized, nonnegative, zero_constant, parity_ok) of a PGF; parity is
    the parity every cycle count with mass must have, or None for no law."""
    parity_ok = None if parity is None else all(k % 2 == parity for k, c in enumerate(coeffs) if c)
    return (sum(coeffs) == 1, all(c >= 0 for c in coeffs), not coeffs or coeffs[0] == 0, parity_ok)


def bernoulli_product(terms, offset):
    """Coefficients of t^offset * prod (1 - p + p t^multiplier) over (p, multiplier)."""
    coeffs = [Fraction(0)] * offset + [Fraction(1)]
    for p, multiplier in terms:
        coeffs = _times(coeffs, [1 - p] + [Fraction(0)] * (multiplier - 1) + [p])
    return _strip(coeffs)


def residual(rebuilt, coeffs):
    """Largest absolute coefficient difference as a float: exact for two
    Fraction lists, in floats against each coefficient's float value when
    `rebuilt` holds floats."""
    if all(isinstance(a, Fraction) for a in rebuilt):
        pairs = itertools.zip_longest(rebuilt, coeffs, fillvalue=Fraction(0))
        return float(max(abs(a - b) for a, b in pairs))
    return max(abs(a - float(b)) for a, b in itertools.zip_longest(rebuilt, coeffs, fillvalue=0.0))


# -- closed forms the long way -------------------------------------------------


def phase_roots_bisection(m):
    """y_1 > ... > y_n > 0 with sum_{k=1..m} atan(y_j/k) = pi*(m/2 - j), by
    halving all brackets [0, m(m+1)/2] until no midpoint falls strictly
    between its endpoints."""
    k = np.arange(1, m + 1, dtype=float)
    target = np.pi * (m / 2 - np.arange(1, (m + 1) // 2))
    lo = np.zeros_like(target)
    hi = np.full_like(target, m * (m + 1) / 2)
    while True:
        mid = (lo + hi) / 2
        if not ((lo < mid) & (mid < hi)).any():
            return mid
        below = np.arctan(mid[:, None] / k).sum(axis=1) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


def two_cycles_law(m):
    """The two-cycles PGF of `genfun.two_cycles_pgf`, from R_{2m+1} - F_{2m+1},
    R_{m+1} - F_{m+1} and rising_square_sum(m), each built on its own."""
    two_m = 2 * m
    head = rising_falling_sum(two_m + 1, -1) / math.factorial(two_m + 1)
    cross = rising_falling_sum(m + 1, -1) / (m + 1)
    cross = (cross * cross) * Fraction(2, math.factorial(two_m))
    s = rising_square_sum(m)
    diag = (s + s.reflect()) * Fraction(2, math.factorial(two_m))
    return head + cross - diag


def transpositions_law(m):
    """The transpositions PGF of `genfun.transpositions_pgf`,
    prod_{k=1..m} (t^2 + 2k - 2) / (2k - 1), one factor at a time in u = t^2."""
    row = [1]
    for k in range(1, m + 1):
        row = [a + (2 * k - 2) * b for a, b in zip([0, *row], [*row, 0])]
    num = [0] * (2 * m + 1)
    num[::2] = row
    return RationalPoly(num) / math.prod(range(1, 2 * m, 2))


def bernoulli_reconstruct(terms, offset):
    """t^offset * prod ((q - r) + r t^multiplier) / q over (p = r/q, multiplier), one
    RationalPoly product per term."""
    poly, den = RationalPoly([0] * offset + [1]), 1
    for p, multiplier in terms:
        r, q = p.numerator, p.denominator
        poly = poly * RationalPoly([q - r] + [0] * (multiplier - 1) + [r])
        den *= q
    return poly / den


# -- Monte-Carlo samples -------------------------------------------------------


def tr_g_squared_samples(n_dim, samples, seed, partitions):
    """Complex samples of tr(G²), G an n_dim×n_dim complex Gaussian matrix,
    drawn by `rmt._collect` on the "tr_g_squared" substreams of (seed, partitions)."""

    def draw(rng, values):
        rmt._ginibre(rng, n_dim, values, lambda g: rmt._power_traces(g, 2)[0])

    return rmt._collect("tr_g_squared", seed, partitions, samples, draw, complex)
