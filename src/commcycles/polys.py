"""Dense polynomials with exact rational coefficients, and the factorial
polynomial toolkit built on them.

Coefficients are integers over one common denominator, still exact: a
tuple of integer numerators indexed by degree and one positive denominator.
The highest-degree numerator is nonzero (the zero polynomial has no
numerators, degree -1, and denominator 1), and the denominator shares no
factor with all the numerators, so equal polynomials have equal
representations.  Ring operations, composition, exact evaluation and
rendering work on these integers and reduce once per result; `numerators`
and `denominator` hand them out, `coeffs` and `coefficient` one
`fractions.Fraction` per coefficient.  Floating point only enters when a
polynomial is *evaluated* at a float or complex point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

Rational = int | Fraction

__all__ = [
    "RationalPoly",
    "X",
    "ONE",
    "ZERO",
    "rising_factorial",
    "falling_factorial",
    "rising_falling_sum",
    "rising_product",
    "discrete_difference",
    "rising_square_sum",
    "connection_expand",
]


def _exact(value) -> Rational:
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _canonical(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Strip trailing zeros, make den positive and divide out gcd(den, *num)."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den < 0:
        num, den = [-c for c in num], -den
    g = math.gcd(den, *num)
    if g > 1:
        num, den = [c // g for c in num], den // g
    return tuple(num), den


def _poly(num: list[int], den: int) -> "RationalPoly":
    """The polynomial sum_k num[k]/den * X^k."""
    p = object.__new__(RationalPoly)
    p._num, p._den = _canonical(num, den)
    return p


def _reduced(c: int, den: int) -> tuple[int, int]:
    """The fraction c/den in lowest terms, by one gcd."""
    g = math.gcd(c, den)
    return c // g, den // g


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


class RationalPoly:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()):
        values = [_exact(c) for c in coeffs]
        den = math.lcm(*(v.denominator for v in values))
        self._num, self._den = _canonical([v.numerator * (den // v.denominator) for v in values], den)

    @property
    def numerators(self) -> tuple[int, ...]:
        """Integer numerators, index = degree, over `denominator`."""
        return self._num

    @property
    def denominator(self) -> int:
        """The one positive denominator of every coefficient."""
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of X^k (zero beyond the degree)."""
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly([other])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a = [c * (den // self._den) for c in self._num]
        b = [c * (den // other._den) for c in other._num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self._num], self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPoly) else RationalPoly([-_exact(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly([c * other.numerator for c in self._num], self._den * other.denominator)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return _poly(_convolve(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _exact(scalar)
        if not s:
            raise ZeroDivisionError("polynomial division by zero")
        return _poly([c * s.denominator for c in self._num], self._den * s.numerator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    # -- evaluation and transforms -------------------------------------------

    def _horner(self, x: Rational) -> tuple[int, int]:
        """The value at the exact rational x = a/b as an integer pair
        (numerator, positive denominator), not reduced.

        Homogeneous Horner: sum_k c_k a^k b^(n-k) over den * b^n, with c_k
        the integer numerators and n the degree.  For a dyadic x (b = 2^e,
        integers included) the powers of b are shifts.
        """
        a, b = x.numerator, x.denominator
        e = b.bit_length() - 1
        acc = 0
        if b == 1 << e:
            for k, c in enumerate(reversed(self._num)):
                acc = acc * a + (c << e * k)
            return acc * b, self._den << e * len(self._num)
        scale = 1
        for c in reversed(self._num):
            acc = acc * a + c * scale
            scale *= b
        # scale ends at b^(n+1), one factor of b past the denominator's b^n.
        return acc * b, self._den * scale

    def __call__(self, x):
        """Horner evaluation.  Exact for int/Fraction arguments; float or
        complex arguments evaluate in floating point, from each
        coefficient's correctly rounded float value."""
        if isinstance(x, (int, Fraction)):
            return Fraction(*self._horner(x))
        den = self._den
        acc = 0.0
        for c in reversed(self._num):
            acc = acc * x + c / den
        return acc

    def sign_at(self, x: Rational) -> int:
        """Sign (-1, 0 or 1) of the value at the exact rational x, read off
        the integer Horner sum without forming the value."""
        v = self._horner(x)[0]
        return (v > 0) - (v < 0)

    def compose(self, inner: "RationalPoly") -> "RationalPoly":
        """The polynomial self(inner(X)).  With inner = q/e, homogeneous
        Horner on integers as in `_horner`: sum_k c_k q^k e^(n-k) over den * e^n."""
        q, e = inner._num or (0,), inner._den
        acc = [0]
        for i, c in enumerate(reversed(self._num)):
            acc = _convolve(acc, q)
            acc[0] += c * e**i
        return _poly(acc, self._den * e ** max(self.degree, 0))

    def reflect(self) -> "RationalPoly":
        """The polynomial P(-X)."""
        return _poly([-c if k & 1 else c for k, c in enumerate(self._num)], self._den)

    def derivative(self) -> "RationalPoly":
        return _poly([k * c for k, c in enumerate(self._num)][1:], self._den)

    # -- rendering ------------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """Coefficients as reduced "num/den" strings, index = degree."""
        return [f"{n}/{d}" for n, d in (_reduced(c, self._den) for c in self._num)]

    def pretty(self, var: str = "t") -> str:
        """Human-readable rendering, highest degree first."""
        return _pretty_strings(self.coeff_strings(), var)

    def __repr__(self):
        return f"RationalPoly({self.pretty(var='X')!r})"


def _pretty_strings(strings: Sequence[str], var: str = "t") -> str:
    """Human-readable rendering, highest degree first, of the reduced
    "num/den" coefficient strings that `RationalPoly.coeff_strings` gives."""
    parts = []
    for k in range(len(strings) - 1, -1, -1):
        if strings[k] != "0/1":
            sign, mag = ("-", strings[k][1:]) if strings[k][0] == "-" else ("+", strings[k])
            mag = mag.removesuffix("/1")
            xk = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            body = mag if not xk else xk if mag == "1" else f"{mag}*{xk}"
            parts.append(f"{sign} {body}" if parts else body if sign == "+" else f"-{body}")
    return " ".join(parts) or "0"


ZERO = RationalPoly()
ONE = RationalPoly([1])
X = RationalPoly([0, 1])


def _times_x_plus(row: list[int], i: int) -> list[int]:
    """Integer coefficients of P(X) * (X + i), from those of P."""
    return [a + i * b for a, b in zip([0, *row], [*row, 0])]


def _rising_row(n: int) -> list[int]:
    """Coefficients of X(X+1)...(X+n-1): the unsigned Stirling numbers of
    the first kind c(n, k), k = 0..n."""
    row = [1]
    for i in range(n):
        row = _times_x_plus(row, i)
    return row


def rising_factorial(n: int) -> RationalPoly:
    """The degree-n polynomial X(X+1)...(X+n-1); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _poly(_rising_row(n), 1)


def falling_factorial(n: int) -> RationalPoly:
    """The degree-n polynomial X(X-1)...(X-n+1); 1 for n = 0.

    Equals (-1)^n * rising_factorial(n)(-X): the signed Stirling numbers
    (-1)^(n-k) c(n, k).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _poly([-c if (n - k) & 1 else c for k, c in enumerate(_rising_row(n))], 1)


def rising_falling_sum(n: int, sign: int) -> RationalPoly:
    """R_n(X) + sign * F_n(X), sign = 1 or -1, from one row of c(n, k): F_n has
    the coefficients (-1)^(n-k) c(n, k), so the terms with (-1)^(n-k) = sign
    double and the others cancel."""
    if n < 0 or sign not in (1, -1):
        raise ValueError(f"need n >= 0 and sign 1 or -1, got n={n}, sign={sign}")
    return _rising_falling(_rising_row(n), sign)


def _rising_falling(row: list[int], sign: int) -> RationalPoly:
    """R_n(X) + sign * F_n(X) from the row of c(n, k), k = 0..n."""
    n, odd = len(row) - 1, sign == -1
    return _poly([2 * c if (n - k) & 1 == odd else 0 for k, c in enumerate(row)], 1)


def rising_product(x: Rational, n: int) -> Rational:
    """Exact value of x(x+1)...(x+n-1).

    For a positive integer x this equals the gamma ratio Γ(x+n)/Γ(x); we
    never go through floating-point gamma.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = x ** 0  # 1 with the argument's exact type
    for i in range(n):
        acc *= x + i
    return acc


def discrete_difference(p: RationalPoly) -> RationalPoly:
    """The backward difference P(X) - P(X-1).

    Drops the degree by exactly one for nonconstant P, and sends the rising
    factorial of degree n to n times the one of degree n-1.
    """
    return p - p.compose(RationalPoly([-1, 1]))


def rising_square_sum(m: int) -> RationalPoly:
    """The degree-(2m+1) polynomial S with S(0) = 0 whose backward difference
    is the square of the degree-m rising factorial.

    Consequently S(N) = sum_{k=1..N} (k(k+1)...(k+m-1))^2 at every integer
    N >= 1.  Explicitly:

        S(X) = sum_{k=0..m} (-1)^k * k!/(2m-k+1) * C(m,k)^2 * R_{2m-k+1}(X)

    with R_n the degree-n rising factorial.  The rows R_{m+1}..R_{2m+1} are
    built in one sweep and summed over the denominator lcm(m+1..2m+1).
    """
    return _rising_square_sweep(m)[2]


def _rising_square_sweep(m: int) -> tuple[list[int], list[int], RationalPoly]:
    """(row of R_{m+1}, row of R_{2m+1}, rising_square_sum(m)) from the one
    sweep of 2m + 1 multiplications by (X + i)."""
    if m < 1:
        raise ValueError("m must be positive")
    top = 2 * m + 1
    den = math.lcm(*range(m + 1, top + 1))
    total = [0] * (top + 1)
    row = first = _rising_row(m + 1)
    for n in range(m + 1, top + 1):
        if n > m + 1:
            row = _times_x_plus(row, n - 1)  # R_n
        k = top - n
        weight = (-1) ** k * math.factorial(k) * math.comb(m, k) ** 2 * (den // n)
        for j, c in enumerate(row):
            total[j] += weight * c
    return first, row, _poly(total, den)


def connection_expand(m: int, n: int) -> RationalPoly:
    """Expansion of the product of the degree-m and degree-n falling
    factorials in the falling-factorial basis:

        sum_{k=0..m} C(m,k) C(n,k) k! * F_{m+n-k}(X)

    which must coincide with falling_factorial(m) * falling_factorial(n).
    Counting argument: both sides count pairs of injective lists of lengths
    m and n drawn from X items, grouped by the overlap size k.
    """
    if m > n:
        raise ValueError(f"m must not exceed n (got m={m}, n={n})")
    if m < 0:
        raise ValueError("m must be nonnegative")
    total = ZERO
    for k in range(m + 1):
        total = total + (math.comb(m, k) * math.comb(n, k) * math.factorial(k)) * falling_factorial(m + n - k)
    return total
