"""Transfer matrix and length-2 decimation for the periodic Ising chain.

Couplings are dimensionless: K0 is the field coupling (beta h) and K1 the
bond coupling (beta J). The symmetric transfer matrix is

    T(K) = [[exp(K1 + K0), exp(-K1)],
            [exp(-K1),     exp(K1 - K0)]]

with eigenvalues lambda_pm = e^{K1} cosh K0 pm sqrt(e^{2 K1} sinh^2 K0 + e^{-2 K1})
and Z_N = lambda_+^N + lambda_-^N on a periodic chain of N sites.

Decimating every second spin squares the transfer matrix up to a scalar:
T(K)^2 = c T(K'). In the variables V_i = exp(-K_i) the step has the closed
form implemented by :func:`rg_step_closed`; :func:`rg_step_oracle` solves
the same three equations numerically from the squared matrix and is kept
deliberately independent so the two routes can cross-check each other.
The oracle squares a whole stack of couplings in one matrix product and
keeps its logarithms, powers and roots per row in ``math``, whose
rounding numpy's ufuncs do not reproduce; the CLI's random sweep checks
all its starts through one such product.
The line V = (lambda, 1) (zero bond coupling) is fixed pointwise, and the
zero-field point V = (1, 0) is an unstable fixed point whose preimages are
produced by :func:`inverse_rg_step_zero_field`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistencyError, ValidationError

__all__ = [
    "COUPLING_CAP",
    "MAX_LOG_Z",
    "CouplingVector",
    "RgTrajectory",
    "TransferMatrix",
    "VVector",
    "eigenvalues",
    "inverse_rg_step_zero_field",
    "log_partition_function",
    "log_partition_function_bruteforce",
    "partition_function",
    "partition_function_bruteforce",
    "rg_step_closed",
    "rg_step_oracle",
    "rg_trajectory",
    "spin_configurations",
    "transfer_matrix",
]

#: Bound on |K0| and |K1| before exp() leaves the double range.
COUPLING_CAP = 300.0

#: Largest log Z whose exponential is returned as a double.
MAX_LOG_Z = 709.0

_BRUTEFORCE_MAX_SITES = 20
_ORACLE_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class CouplingVector:
    """Dimensionless couplings (K0 field, K1 bond), capped at |K| <= 300.

    Both are stored as Python floats, whatever real numbers they were given
    as, so products with the int8 configuration sums are float64.
    """

    k0: float
    k1: float

    def __post_init__(self) -> None:
        for name, value in (("k0", self.k0), ("k1", self.k1)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            if abs(value) > COUPLING_CAP:
                raise ValidationError(
                    f"|{name}| = {abs(value)!r} exceeds the overflow cap "
                    f"{COUPLING_CAP}; rescale the couplings"
                )
            object.__setattr__(self, name, float(value))

    @property
    def v(self) -> "VVector":
        return VVector(math.exp(-self.k0), math.exp(-self.k1))


@dataclass(frozen=True)
class VVector:
    """Exponentiated couplings V_i = exp(-K_i), the RG map's natural frame.

    Components must be positive; values above 1 are legitimate (they
    encode negative couplings) and are accepted.
    """

    v0: float
    v1: float

    def __post_init__(self) -> None:
        for name, value in (("v0", self.v0), ("v1", self.v1)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and positive, got {value!r}")

    @property
    def couplings(self) -> CouplingVector:
        return CouplingVector(-math.log(self.v0), -math.log(self.v1))


def _as_coupling(k: CouplingVector | Iterable[float]) -> CouplingVector:
    if isinstance(k, CouplingVector):
        return k
    k0, k1 = (float(x) for x in k)
    return CouplingVector(k0, k1)


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """A symmetric 2x2 matrix with positive entries."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValidationError(f"transfer matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise ValidationError("transfer matrix entries must be finite and positive")
        if m[0, 1] != m[1, 0]:
            raise ValidationError("transfer matrix must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def transfer_matrix(k: CouplingVector | Iterable[float]) -> TransferMatrix:
    """T(K) in the convention with the bond on the diagonal exponent."""
    kk = _as_coupling(k)
    return TransferMatrix(
        np.array(
            [
                [math.exp(kk.k1 + kk.k0), math.exp(-kk.k1)],
                [math.exp(-kk.k1), math.exp(kk.k1 - kk.k0)],
            ]
        )
    )


def eigenvalues(k: CouplingVector | Iterable[float]) -> tuple[float, float]:
    """(lambda_+, lambda_-) of T(K), closed form, lambda_+ > |lambda_-|.

    lambda_+ = e^{K1} cosh K0 + hypot(e^{K1} sinh K0, e^{-K1}) has no
    cancellation, and lambda_- follows from the determinant
    lambda_+ lambda_- = 2 sinh 2K1; every intermediate stays inside the
    double range for |K| <= 300.
    """
    kk = _as_coupling(k)
    scale = math.exp(kk.k1)
    lam_plus = scale * math.cosh(kk.k0) + math.hypot(
        scale * math.sinh(kk.k0), math.exp(-kk.k1)
    )
    return lam_plus, 2.0 * math.sinh(2.0 * kk.k1) / lam_plus


def _validate_chain_length(n_sites: int) -> int:
    n = int(n_sites)
    if n < 2:
        raise ValidationError(f"a periodic chain needs at least 2 sites, got {n_sites}")
    return n


def log_partition_function(k: CouplingVector | Iterable[float], n_sites: int) -> float:
    """log Z_N for the periodic chain, stable for any chain length.

    log Z_N = N log lambda_+ + log(1 + r^N) with r = lambda_- / lambda_+.
    On a frustrated ring (K1 < 0, odd N) r is close to -1 and 1 + r^N
    cancels; there lambda_+ + lambda_- = 2 e^{K1} cosh K0 gives
    1 - |r| = 2 e^{K1} cosh K0 / lambda_+ without cancellation, and
    1 - |r|^N = -expm1(N log1p(-(1 - |r|))). When |r| <= 1/2, log |r| is
    taken directly. A chain longer than the largest double, or a log Z
    past it, is refused.
    """
    kk = _as_coupling(k)
    n = _validate_chain_length(n_sites)
    if n > sys.float_info.max:
        raise ValidationError(
            f"a chain of more than {sys.float_info.max!r} sites leaves the double range"
        )
    lam_plus, lam_minus = eigenvalues(kk)
    ratio = lam_minus / lam_plus
    if ratio < 0.0 and n % 2 == 1:
        gap = 2.0 * math.exp(kk.k1) * math.cosh(kk.k0) / lam_plus
        log_abs = math.log1p(-gap) if gap < 0.5 else math.log(-ratio)
        tail = math.log(-math.expm1(n * log_abs))
    else:
        tail = math.log1p(ratio**n)
    log_z = n * math.log(lam_plus) + tail
    if not math.isfinite(log_z):
        raise ValidationError(f"log Z exceeds the largest double {sys.float_info.max!r}")
    return log_z


def partition_function(k: CouplingVector | Iterable[float], n_sites: int) -> float:
    """Z_N = lambda_+^N + lambda_-^N for the periodic chain.

    Raises when the value leaves the double range; use
    :func:`log_partition_function` there.
    """
    log_z = log_partition_function(k, n_sites)
    if log_z > MAX_LOG_Z:
        raise ValidationError(
            f"Z overflows a double (log Z = {log_z!r}); "
            "work with the log-domain value instead"
        )
    return math.exp(log_z)


def partition_function_bruteforce(
    k: CouplingVector | Iterable[float], n_sites: int
) -> float:
    """Z_N summed over all 2^N spin configurations, the exact oracle.

    Enumerates exp(K0 sum S_i + K1 sum S_i S_{i+1}) with the periodic
    closure S_{N+1} = S_1. Capped at N = 20 sites. Raises when a term or
    the sum leaves the double range; use
    :func:`log_partition_function_bruteforce` there.
    """
    kk = _as_coupling(k)
    field, bonds = _field_and_bond_sums(_validate_bruteforce_length(n_sites))
    try:
        with np.errstate(over="raise"):
            return float(np.exp(kk.k0 * field + kk.k1 * bonds).sum())
    except FloatingPointError:
        raise ValidationError(
            "brute-force Z overflows a double; "
            "work with log_partition_function_bruteforce instead"
        ) from None


def log_partition_function_bruteforce(
    k: CouplingVector | Iterable[float], n_sites: int
) -> float:
    """log Z_N by a log-sum-exp over all 2^N spin configurations.

    The same enumeration as :func:`partition_function_bruteforce`, shifted
    by the largest exponent, so it is finite anywhere in |K| <= 300.
    Capped at N = 20 sites.
    """
    kk = _as_coupling(k)
    field, bonds = _field_and_bond_sums(_validate_bruteforce_length(n_sites))
    return _shifted_boltzmann(kk.k0 * field + kk.k1 * bonds)[1]


def _validate_bruteforce_length(n_sites: int) -> int:
    n = _validate_chain_length(n_sites)
    if n > _BRUTEFORCE_MAX_SITES:
        raise ValidationError(
            f"brute force is capped at {_BRUTEFORCE_MAX_SITES} sites, got {n}"
        )
    return n


def _shifted_boltzmann(exponent: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(exponent - top) for the largest exponent top, and log sum exp(exponent).

    The weights are written over ``exponent``. Every weight lies in
    [0, 1], so the log of the sum stays finite where the plain sum of
    exp(exponent) would overflow.
    """
    top = exponent.max()
    boltzmann = np.exp(np.subtract(exponent, top, out=exponent), out=exponent)
    return boltzmann, float(top + np.log(boltzmann.sum()))


@lru_cache(maxsize=1)
def _field_and_bond_sums(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_i S_i and sum_i S_i S_{i+1} for every configuration index, read-only int8.

    Index i has spin j down when bit j is set (the layout of
    :func:`spin_configurations`), so the field sum is n - 2 popcount(i)
    and the periodic bond sum is n - 2 popcount(i XOR rot(i)), where
    rot(i) moves bit j + 1 to bit j and bit 0 to bit n - 1. Both lie in
    [-n, n], and the brute force stops at n = 20. Only the last chain
    length is kept.
    """
    n = int(n_sites)
    index = np.arange(1 << n, dtype=np.uint32)
    rotated = (index >> 1) | ((index & 1) << (n - 1))
    down = np.bitwise_count(index).astype(np.int8)
    broken = np.bitwise_count(index ^ rotated).astype(np.int8)
    field, bonds = n - 2 * down, n - 2 * broken
    field.flags.writeable = bonds.flags.writeable = False
    return field, bonds


def spin_configurations(n_sites: int) -> np.ndarray:
    """All 2^n configurations as a (2^n, n) array of +-1, site 0 fastest.

    Configuration index i has spin +1 at site j when bit j of i is clear,
    so index 0 is the all-up configuration.
    """
    n = int(n_sites)
    index = np.arange(1 << n, dtype=np.uint32)
    spins = np.empty((index.size, n), dtype=np.int8)
    for j in range(n):
        spins[:, j] = 1 - 2 * ((index >> j) & 1).astype(np.int8)
    return spins


def rg_step_closed(v: VVector) -> tuple[VVector, float]:
    """One decimation step in the V frame, closed form.

    Returns (V', c) with T(K)^2 = c T(K'). The fixed line V = (lambda, 1)
    is preserved exactly, with c = lambda + 1/lambda on it.
    """
    v0, v1 = v.v0, v.v1
    try:
        a = v1**4 + v0**2
        b = v1**4 + 1.0 / v0**2
        s = v0 + 1.0 / v0
        t = v1**4 + 1.0 / v1**4 + v0**2 + 1.0 / v0**2
    except (ZeroDivisionError, OverflowError):
        raise ValidationError(
            f"decimation step left the double range at V = ({v0!r}, {v1!r})"
        ) from None
    if not all(map(math.isfinite, (a, b, s, t))):
        raise ValidationError(
            f"decimation step overflowed at V = ({v0!r}, {v1!r}); "
            "couplings too large for the closed form"
        )
    v0_new = math.sqrt(a) / math.sqrt(b)
    v1_new = math.sqrt(s) / t**0.25
    c = math.sqrt(s) * t**0.25
    return VVector(v0_new, v1_new), c


def rg_step_oracle(
    k: CouplingVector | Iterable[float]
) -> tuple[CouplingVector, float]:
    """One decimation step solved numerically from the squared matrix.

    Squares T(K), extracts (K', c) from the three independent entries,
    and verifies the reconstruction c T(K') against T(K)^2 to 1e-12
    relative before returning. Disagreement raises
    :class:`InconsistencyError` rather than returning a bad step. A step
    whose squared matrix, or the ratio or product of its diagonal, leaves
    the double range is refused with a :class:`ValidationError`.

    This is :func:`_rg_step_oracle_stack` on a stack of one. The CLI's
    ``--sweep-random`` squares all its starts in one stacked product of
    that kernel, whose logarithms, powers and roots stay per row in
    ``math``: numpy's ``exp``, ``power`` and ``log`` round differently on
    a few percent of these inputs, and the sweep keeps its bytes.
    """
    return _rg_step_oracle_stack((_as_coupling(k),))[0]


def _rg_step_oracle_stack(
    couplings: Sequence[CouplingVector],
) -> list[tuple[CouplingVector, float]]:
    """:func:`rg_step_oracle` on every coupling, squaring them in one product.

    Each T(K) is built from ``math.exp`` and all are squared by one
    stacked ``ts @ ts``, which gives each row the bytes of its own
    ``t @ t``: the same BLAS product per matrix, where plain float sums
    of the entries differ (BLAS fuses multiply-adds). K', c and the
    residual stay per-row Python floats through ``math.log``, ``** 0.25``
    and ``math.sqrt``, because numpy's ``exp``, ``power`` and ``log``
    round differently from ``math`` on a few percent of these inputs
    (the README's design notes give the counts). The refusal of the
    first row that has one is raised, so the rows are checked in order.
    """
    entries = []
    for kk in couplings:
        off = math.exp(-kk.k1)
        entries.append((math.exp(kk.k1 + kk.k0), off, off, math.exp(kk.k1 - kk.k0)))
    ts = np.array(entries).reshape(-1, 2, 2)
    with np.errstate(over="ignore"):
        squares = (ts @ ts).tolist()
    steps = []
    for kk, ((upper, cross), (cross_t, lower)) in zip(couplings, squares):
        ratio, product = upper / lower, upper * lower
        if not (0.0 < ratio < math.inf and 0.0 < product < math.inf):  # NaN fails too
            raise ValidationError(
                f"decimation oracle left the double range at K = ({kk.k0!r}, {kk.k1!r})"
            )
        k0_new = 0.5 * math.log(ratio)
        k1_new = 0.25 * math.log(product / cross**2)
        c = product**0.25 * math.sqrt(cross)
        coupling_new = CouplingVector(k0_new, k1_new)
        off = c * math.exp(-k1_new)
        residual = max(
            abs(c * math.exp(k1_new + k0_new) - upper),
            abs(off - cross),
            abs(off - cross_t),
            abs(c * math.exp(k1_new - k0_new) - lower),
        ) / max(abs(upper), abs(cross), abs(cross_t), abs(lower))
        if residual > _ORACLE_RESIDUAL_TOL:
            raise InconsistencyError(
                f"decimation oracle reconstruction residual {residual!r} "
                f"exceeds {_ORACLE_RESIDUAL_TOL}"
            )
        steps.append((coupling_new, c))
    return steps


@dataclass(frozen=True)
class RgTrajectory:
    """A forward RG orbit in the V frame.

    ``steps[i]`` holds the state after step i + 1 together with the
    rescaling constant that step produced. ``converged_to`` is set only
    when the orbit stalled below tolerance and the closed-form map moves
    the final iterate by at most 10 times that tolerance (a genuine
    fixed-point residual, not just a stall). A divergent orbit (overflow
    or nonpositive components) is reported with ``diverged`` and the last
    valid iterate rather than raised.
    """

    start: VVector
    steps: tuple[tuple[VVector, float], ...]
    steps_used: int
    converged_to: VVector | None
    diverged: bool


def rg_trajectory(
    start: VVector,
    max_steps: int = 100,
    tol: float = 1e-10,
) -> RgTrajectory:
    """Iterate the closed-form decimation until it stalls or runs out.

    Stops when the sup-norm move of one step falls below ``tol``, or after
    ``max_steps``, or at divergence.
    """
    if max_steps < 1:
        raise ValidationError(f"max_steps must be at least 1, got {max_steps}")
    if not tol > 0.0:  # NaN fails too
        raise ValidationError(f"tol must be positive, got {tol!r}")
    current = start
    steps: list[tuple[VVector, float]] = []
    converged_to: VVector | None = None
    diverged = False
    for _ in range(max_steps):
        try:
            nxt, c = rg_step_closed(current)
        except ValidationError:
            diverged = True
            break
        move = max(abs(nxt.v0 - current.v0), abs(nxt.v1 - current.v1))
        if move < tol:
            # stalled; certify a fixed point before claiming convergence,
            # and record nothing (a start on the fixed line takes 0 steps)
            probe, _ = rg_step_closed(nxt)
            residual = max(abs(probe.v0 - nxt.v0), abs(probe.v1 - nxt.v1))
            if residual <= 10.0 * tol:
                converged_to = nxt
            break
        steps.append((nxt, c))
        current = nxt
    return RgTrajectory(
        start=start,
        steps=tuple(steps),
        steps_used=len(steps),
        converged_to=converged_to,
        diverged=diverged,
    )


def inverse_rg_step_zero_field(k1_prime: float) -> float:
    """Exact inverse of decimation on the zero-field line.

    Solves e^{2 K1'} = cosh(2 K1) for K1, i.e. K1 = arccosh(e^{2 K1'}) / 2,
    evaluated in the overflow-safe form
    K1 = K1' + log1p(sqrt(1 - e^{-4 K1'})) / 2. Iterating grows K1 without
    bound, walking toward the zero-temperature point V = (1, 0).
    """
    kp = float(k1_prime)
    if not (math.isfinite(kp) and kp > 0.0):
        raise ValidationError(
            f"the zero-field inverse needs K1' > 0, got {k1_prime!r}"
        )
    return kp + 0.5 * math.log1p(math.sqrt(-math.expm1(-4.0 * kp)))
