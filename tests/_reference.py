"""Plain-Python references the tests hold the package's fast paths against.

Permutation algebra on one-line maps, the independent reference for the
numpy commutator kernel `oracle._commutator_counts`.  A one-line map is a
sequence m of range(M) with m[i] the image of i, such as `Permutation.map`.

Exact-law readers on coefficient lists of `fractions.Fraction` (index =
degree), one Fraction per coefficient, as `RationalPoly.coeffs` gives them:
the references for the integer-numerator rendering, composition, PGF
validation and Bernoulli reconstruction in `polys` and `genfun`.
"""

import itertools
from fractions import Fraction


def compose(a, b):
    """a∘b, i.e. apply b first: result[i] = a[b[i]]."""
    return tuple(a[j] for j in b)


def conjugate(s, t):
    """The conjugate s∘t∘s⁻¹, which sends s[i] to s[t[i]]."""
    out = [0] * len(s)
    for i, ti in enumerate(t):
        out[s[i]] = s[ti]
    return tuple(out)


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
