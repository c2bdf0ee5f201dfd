"""Monte-Carlo verification of the trace identities linking Gaussian random
matrices to cycle counts of permutation commutators.

Every identity is checked by simulating the matrix side and comparing
against an exact rational target, never floating-point gamma: Kostlan's
Gamma-moment sum, or a `genfun` law at N that the check thereby witnesses,
the law of [M]^K for trace_power and of [2]^M for tr_g_squared, the
transpositions law for real_trace, the uniform law for tr_g1_g2.  Every
estimate carries its target, a standard error and a z-score.  tr_g_squared
(`mc tr-g2`) is the trace-power estimator at power 2, the same body as
trace_power, drawn on its own substream.

Every estimator takes its dimension and orders, then one sampling plan
(samples=, seed=, partitions=, all required, by keyword), and runs one path,
`_estimate`: check the inputs and the plan, compute the exact target, and
only then draw through one batch driver, `_collect`.  So a target with no
exact law raises EnumerationCapError, and one beyond the double range, or
whose square is, a ValueError, before any draw; an estimate or standard
error that overflows after the draws does too.  Draws are split across
`partitions` independent substreams spawned from numpy SeedSequence; a fixed
(seed, partitions) pair reproduces estimates bit for bit, and each identity
derives its own substream from its name so that different identities do not
share variates.  Partitions run side by side on min(partitions, cpu count)
threads, each writing its own slice of one array in batches of up to
`_BATCH` draws.  Side by side, every partition's working set counts, so each
stays bounded: a complex batch holds its real parts (drawn first, as one
(2, b, n, n) draw would) and streams the rest through `_normal_chunks` in
chunks of `_CHUNK` entries, reducing each complex chunk at once; no whole
complex batch is formed.

Traces of matrix powers are contracted, never formed: tr G^p sums G^ceil(p/2)
against the transpose of G^floor(p/2), both built batch-last, as (n, n, k)
stacks, so each product is n multiply-adds over the k matrices of a chunk;
the traces of several powers share one chain of powers.
"""

from __future__ import annotations

import itertools
import math
import os
import zlib
from fractions import Fraction

import numpy as np

from .genfun import commutator_law, transpositions_pgf, uniform_cycles_pgf
from .perm import CycleType, Frozen

__all__ = [
    "MomentReport",
    "Z_MAX",
    "mc_trace_power_moment",
    "mc_gamma_shortcut_moment",
    "mc_real_trace_law",
    "mc_tr_g_squared_law",
    "mc_tr_g1g2_law",
    "mixed_trace_vanishing",
    "trace_power_target",
    "gamma_shortcut_target",
    "real_trace_target",
    "tr_g1g2_target",
]

_BATCH = 1 << 15
_MAX_PARTITIONS = 1024  # each partition has its own Generator and its own draw calls
_CHUNK = 1 << 15  # matrix entries per streamed chunk (0.5 MB as complex)
_SCALE = math.sqrt(0.5)  # complex entries are (x+iy)/sqrt(2)
Z_MAX = 5.0  # an estimate passes when |z| <= Z_MAX (`mc`'s exit code, `verify`'s checks)


class MomentReport(Frozen):
    """A Monte-Carlo estimate next to its exact target (a Fraction)."""

    __slots__ = ("identity", "params", "estimate", "std_error", "target", "z", "samples", "seed", "partitions", "extra")

    def to_json(self) -> dict:
        return {
            "identity": self.identity, **self.params, "estimate": self.estimate, "std_error": self.std_error,
            "target": f"{self.target.numerator}/{self.target.denominator}", "target_float": float(self.target),
            "z": self.z, "samples": self.samples, "seed": self.seed, "partitions": self.partitions, **self.extra,
        }


def _check_plan(samples: int, partitions: int, **orders: int) -> None:
    """Reject a dimension, order or partition count below 1, fewer than 2
    samples (no standard error), and more partitions than _MAX_PARTITIONS
    (never clamped, since the partition count fixes the substreams)."""
    for name, value in {**orders, "partitions": partitions}.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2 for a standard error, got {samples}")
    if partitions > _MAX_PARTITIONS:
        raise ValueError(f"partitions must be at most {_MAX_PARTITIONS}, got {partitions}")


def _streams(seed: int, partitions: int, identity: str) -> list[np.random.Generator]:
    root = np.random.SeedSequence(entropy=(seed % 2**63, zlib.crc32(identity.encode())))
    return [np.random.default_rng(child) for child in root.spawn(partitions)]


def _partition_sizes(total: int, partitions: int) -> list[int]:
    base, rem = divmod(total, partitions)
    return [base + (1 if i < rem else 0) for i in range(partitions)]


def _normal_chunks(rng: np.random.Generator, count: int, n: int):
    """Yield (rows, x) over `count` n×n blocks of standard normals, drawn into
    one reused buffer of at most `_CHUNK` entries: the same normals in the
    same order as one standard_normal((count, n, n)) draw."""
    step = max(1, _CHUNK // (n * n))
    buf = np.empty((min(count, step), n, n))
    for lo in range(0, count, step):
        x = buf[: min(step, count - lo)]
        rng.standard_normal(out=x)
        yield slice(lo, lo + len(x)), x


def _ginibre(rng: np.random.Generator, n: int, out: np.ndarray, reduce) -> None:
    """Fill `out` with reduce(g) over len(out) complex n×n matrices with
    entries (x+iy)/sqrt(2), one value per matrix.  All real parts are drawn
    before any imaginary part, as in one (2, len(out), n, n) draw; only the
    real block and one complex chunk are held, and `reduce` gets each chunk
    as it is built."""
    real = rng.standard_normal((len(out), n, n))
    for rows, imag in _normal_chunks(rng, len(out), n):
        chunk = np.empty(imag.shape, dtype=complex)
        np.multiply(real[rows], _SCALE, out=chunk.real)
        np.multiply(imag, _SCALE, out=chunk.imag)
        out[rows] = reduce(chunk)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix products of two batch-last stacks of shape (n, n, k): n
    broadcast multiply-adds, each a contiguous vector op over the k matrices."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[None, j]
    return out


def _power_traces(g: np.ndarray, *powers: int) -> list[np.ndarray]:
    """tr G^p for each p of `powers` and each matrix of the stack g, without
    forming G^p: the sum of G^ceil(p/2) times the transpose of G^floor(p/2),
    entry by entry, from one chain of powers built batch-last by `_product`."""
    a = np.ascontiguousarray(g.transpose(1, 2, 0)) if max(powers) > 1 else None
    chain = [None, a]  # chain[i] = G^i
    while len(chain) <= (max(powers) + 1) // 2:
        chain.append(_product(chain[-1], a))
    return [
        np.einsum("kii->k", g) if p == 1 else (chain[(p + 1) // 2] * chain[p // 2].transpose(1, 0, 2)).sum(axis=(0, 1))
        for p in powers
    ]


def _collect(identity, seed, partitions, total, draw, dtype) -> np.ndarray:
    """One array of `total` values, each slice filled by `draw(rng, values)`.
    Each partition substream fills its own slice in batches of at most
    `_BATCH`, so the array depends on (seed, partitions) only.  Partitions
    run on min(partitions, cpu count) threads, the caller's included; a
    thread takes every workers-th partition in turn."""
    out = np.empty(total, dtype=dtype)
    streams = _streams(seed, partitions, identity)
    bounds = list(itertools.accumulate(_partition_sizes(total, partitions), initial=0))
    workers = min(partitions, os.cpu_count() or 1)

    def fill(first):
        for i in range(first, partitions, workers):
            for lo in range(bounds[i], bounds[i + 1], _BATCH):
                draw(streams[i], out[lo : min(lo + _BATCH, bounds[i + 1])])

    if workers == 1:
        fill(0)
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:  # leaving waits for every helper
        helpers = [pool.submit(fill, w) for w in range(1, workers)]
        fill(0)
        for helper in helpers:
            helper.result()
    return out


def _estimate(identity, params, plan, target, draw, dtype=float) -> MomentReport:
    """The one path of every estimator: check the inputs and the plan, compute
    the exact target (a thunk), refuse it if it or its square does not fit a
    double, and only then draw `samples` values of `dtype`, each batch filled by
    `draw(rng, values)` on the identity's substreams (`_collect`), and report,
    refusing an estimate or standard error that overflowed.  A complex sample (the mixed moment) reports
    the modulus of its mean, with the combined real and imaginary standard error."""
    samples, seed, partitions = plan
    _check_plan(samples, partitions, **params)
    target = target()
    bits = target.numerator.bit_length() - target.denominator.bit_length()
    try:
        exact = float(target)
    except OverflowError:
        raise ValueError(f"the exact {identity} target, about 2^{bits}, does not fit a double") from None
    if math.isinf(exact * exact):  # samples of the target's size square beyond a double, as would their spread
        raise ValueError(f"the square of the exact {identity} target, about 2^{2 * bits}, does not fit a double")
    values, extra = _collect(identity, seed, partitions, samples, draw, dtype), {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned of
        if np.iscomplexobj(values):
            mean = complex(values.mean())
            estimate, extra = abs(mean), {"estimate_re": mean.real, "estimate_im": mean.imag}
            std_error = math.sqrt((values.real.var(ddof=1) + values.imag.var(ddof=1)) / samples)
        else:
            estimate = float(values.mean())
            std_error = float(values.std(ddof=1)) / math.sqrt(samples)
    if not (math.isfinite(estimate) and math.isfinite(std_error)):
        raise ValueError(f"the {identity} samples overflow a double: estimate {estimate}, standard error {std_error}")
    z = (estimate - exact) / std_error if std_error > 0 else (0.0 if estimate == exact else float("inf"))
    return MomentReport(identity, params, estimate, std_error, target, z, samples, seed, partitions, extra)


# -- exact targets ---------------------------------------------------------------


def trace_power_target(n_dim: int, power: int, factors: int) -> Fraction:
    """Exact value of E prod_{k<=factors} |tr G^power|^2 for an N=n_dim
    complex Gaussian matrix: M! * E_sigma N^C([σ,τ]) with τ a product of
    `factors` disjoint `power`-cycles and M = power*factors.

    The law of C([σ,τ]) comes from genfun.commutator_law: a closed form
    when τ is in a solved family, otherwise the character sum up to
    M = genfun.CHARACTER_MAX_M, above which EnumerationCapError is raised.
    """
    law = commutator_law(CycleType([power] * factors))
    return math.factorial(power * factors) * law.poly(n_dim)


def gamma_shortcut_target(n_dim: int, m: int, factors: int) -> Fraction:
    """Exact E|Σ_{i<=N} z_i|^(2K), K = factors, for independent z_i =
    γ_i^(m/2) e^{iθ_i} with γ_i ~ Gamma(i) and uniform phases: the moments
    of |Σ_i λ_i^m|^2 under the decorrelated eigenvalue-power representation
    (Kostlan; valid for m >= n_dim).

    Only terms with as many z_i as conj(z_i) survive, and E γ_i^(mk) is the
    rising product (i)_(mk) = (i+mk-1)!/(i-1)!, so the moment is
    (K!)² Σ_{k_1+...+k_N=K} Π_i (i)_(m·k_i)/(k_i!)²: (K!)² times the x^K
    coefficient of Π_i Σ_{j<=K} (i)_(m·j) x^j/(j!)².  Carrying d!² times
    the x^d coefficient keeps every term an integer: each factor is then a
    convolution weighted by C(d, j)², of which the last factor needs the x^K
    term alone.  O(N·K²) exact terms.
    """
    coeffs = [1] + [0] * factors
    moments = [math.factorial(m * j) for j in range(factors + 1)]  # (i)_(mj) at i = 1
    for i in range(1, n_dim + 1):
        degrees = range(factors + 1) if i < n_dim else [factors]
        coeffs = [sum(math.comb(d, j) ** 2 * moments[j] * coeffs[d - j] for j in range(d + 1)) for d in degrees]
        moments = [x * (i + m * j) // i for j, x in enumerate(moments)]  # (i+1)_(mj) = (i)_(mj)·(i+mj)/i
    return Fraction(coeffs[-1])


def real_trace_target(n_dim: int, m: int) -> Fraction:
    """E (tr R Rᵀ)^M exactly: (2M-1)!! times the transpositions law of [2]^M at t = N."""
    return math.prod(range(1, 2 * m, 2)) * transpositions_pgf(m).poly(n_dim)


def tr_g1g2_target(n_dim: int, m: int) -> Fraction:
    """E |tr G₁G₂|^(2M) exactly: (M!)² times the uniform cycle-count law of M points at t = N²."""
    return math.factorial(m) ** 2 * uniform_cycles_pgf(m).poly(n_dim * n_dim)


# -- Monte-Carlo estimators --------------------------------------------------------


def mc_trace_power_moment(
    n_dim: int, power: int, factors: int, *, samples: int, seed: int, partitions: int
) -> MomentReport:
    """Estimate E |tr G^power|^(2*factors) for an n_dim×n_dim complex
    Gaussian matrix G by direct simulation, from `samples` draws split over
    `partitions` substreams of `seed`, and compare with the exact
    permutation-side target."""
    params = {"N": n_dim, "M": power, "K": factors}
    return _trace_power("trace_power", params, power, factors, (samples, seed, partitions))


def _trace_power(identity, params, power, factors, plan) -> MomentReport:
    """E |tr G^power|^(2*factors) at N = params["N"], reported and drawn under `identity`."""

    def draw(rng, values):
        _ginibre(rng, params["N"], values, lambda g: np.abs(_power_traces(g, power)[0]) ** (2 * factors))

    return _estimate(identity, params, plan, lambda: trace_power_target(params["N"], power, factors), draw)


def mc_gamma_shortcut_moment(
    n_dim: int, m: int, factors: int, *, samples: int, seed: int, partitions: int
) -> MomentReport:
    """Estimate the same moment as mc_trace_power_moment without any matrix:
    for m >= N the eigenvalue powers decorrelate, |λ_i|^(2m) =d γ_i^m with
    independent Gamma(i) variables and independent uniform phases, so we
    sample λ_i^m = γ_i^(m/2) e^{iθ_i} directly."""
    if m < n_dim:
        raise ValueError(f"decorrelation requires m >= N (got m={m}, N={n_dim})")
    shapes = np.arange(1, n_dim + 1, dtype=float)

    def draw(rng, values):
        radii = rng.gamma(shape=shapes, size=(len(values), n_dim)) ** (m / 2.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(len(values), n_dim))
        values[:] = np.abs((radii * np.exp(1j * phases)).sum(axis=1)) ** (2 * factors)

    def target():  # the k_N = K term, (N)_(mK) = Γ(N+mK)/Γ(N), bounds the sum below: refuse a huge one unsummed
        bits = math.floor((math.lgamma(n_dim + m * factors) - math.lgamma(n_dim)) / math.log(2))
        if bits >= 1024:
            raise ValueError(f"the exact gamma_shortcut target, about 2^{bits}, does not fit a double")
        return gamma_shortcut_target(n_dim, m, factors)

    return _estimate("gamma_shortcut", {"N": n_dim, "M": m, "K": factors}, (samples, seed, partitions), target, draw)


def mc_real_trace_law(n_dim: int, m: int, *, samples: int, seed: int, partitions: int) -> MomentReport:
    """Estimate E (tr R Rᵀ)^M for a real Gaussian matrix R; tr R Rᵀ is the
    sum of the N² squared entries, distributed as 2·Gamma(N²/2)."""
    def draw(rng, values):
        entries = rng.standard_normal((len(values), n_dim * n_dim))
        values[:] = np.einsum("ki,ki->k", entries, entries) ** m

    return _estimate(
        "real_trace", {"N": n_dim, "M": m, "K": 1}, (samples, seed, partitions),
        lambda: real_trace_target(n_dim, m), draw,
    )


def mc_tr_g_squared_law(n_dim: int, m: int, *, samples: int, seed: int, partitions: int) -> MomentReport:
    """Estimate E |tr G²|^(2M) and compare with the exact moments of
    4·γ₁·γ_{N²/2}, i.e. 4^M M! (N²/2)...(N²/2+M-1): the trace-power
    estimator at power 2 and M factors, on its own tr_g_squared substream."""
    return _trace_power("tr_g_squared", {"N": n_dim, "M": m, "K": 1}, 2, m, (samples, seed, partitions))


def mc_tr_g1g2_law(n_dim: int, m: int, *, samples: int, seed: int, partitions: int) -> MomentReport:
    """Estimate E |tr G₁G₂|^(2M) for independent complex Gaussian matrices
    and compare with the exact moments of γ₁·γ_{N²}, i.e. M! N²...(N²+M-1).

    G₂ is never formed: with G = (X+iY)/sqrt(2), tr G₁G₂ is
    ((tr X₁X₂ - tr Y₁Y₂) + i(tr Y₁X₂ + tr X₁Y₂))/2, accumulated while X₂
    and then Y₂ stream past the held X₁ and Y₁."""
    def draw(rng, values):
        b = len(values)
        # the normals of one (2, b, n, n) draw, held as two blocks the size
        # of every other held block, so freed memory fits them
        x1 = rng.standard_normal((b, n_dim, n_dim))
        y1 = rng.standard_normal((b, n_dim, n_dim))
        t = np.empty(b, dtype=complex)
        for rows, x2 in _normal_chunks(rng, b, n_dim):
            t.real[rows] = np.einsum("kij,kji->k", x1[rows], x2)
            t.imag[rows] = np.einsum("kij,kji->k", y1[rows], x2)
        for rows, y2 in _normal_chunks(rng, b, n_dim):
            t.real[rows] -= np.einsum("kij,kji->k", y1[rows], y2)
            t.imag[rows] += np.einsum("kij,kji->k", x1[rows], y2)
        values[:] = np.abs(t / 2) ** (2 * m)

    return _estimate(
        "tr_g1_g2", {"N": n_dim, "M": m, "K": 1}, (samples, seed, partitions),
        lambda: tr_g1g2_target(n_dim, m), draw,
    )


def mixed_trace_vanishing(
    n_dim: int, m1: int, m2: int, *, samples: int, seed: int, partitions: int
) -> MomentReport:
    """Estimate the mixed moment E tr(G^{M1}) conj(tr(G^{M2})), which is
    exactly 0 for M1 != M2.  The report's estimate is the modulus of the
    complex sample mean, with the combined real+imaginary standard error."""
    if m1 == m2:
        raise ValueError("mixed moment vanishes only for M1 != M2")

    def draw(rng, values):
        _ginibre(rng, n_dim, values, lambda g: (t := _power_traces(g, m1, m2))[0] * np.conj(t[1]))

    return _estimate(
        "mixed_trace", {"N": n_dim, "M": m1, "M2": m2, "K": 1}, (samples, seed, partitions),
        lambda: Fraction(0), draw, complex,
    )
