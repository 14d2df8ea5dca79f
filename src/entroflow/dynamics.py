"""Measure-preserving dynamics and information production rates.

Two kinds of system are covered. A :class:`PermutationSystem` is a finite
probability space with a weight-preserving permutation; its join flow
{join of T^{-k}P, k < n} is materialized atom by atom and stabilizes after
at most as many steps as there are points. A :class:`SymbolicSystem` is
the left shift with a Bernoulli or stationary Markov measure; there the
n-th join of the generating partition is the exact distribution over
length-n cylinder words, computed by recursion over words (never by
sampling) under a hard word-count cap. One join generator serves both
kinds: it yields the n-fold joins in order, and the block entropies, the
single n-fold join and the generating-map check all read from it.

The information production rate h(P, T) is estimated from the exact block
entropies H_n as the last increment H_n - H_{n-1}. For stationary product
and Markov measures the increment equals the rate exactly from n = 2 on,
and for finite permutation systems it is exactly zero once the join flow
plateaus, which is what makes the rate estimate comparable against the
closed-form Markov rate without any asymptotic fitting. The H_n / n
sequence is reported alongside for reference; it approaches the same
limit but only at O(1/n) speed.

The supremum of rates over a finite family of partitions is an honest
lower bound for the true supremum over all partitions, and that is how
``ks_entropy_family`` and ``is_chaotic`` are to be read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .flows import (
    DEFAULT_EPSILON,
    LimitPointVerdict,
    PartitionFlow,
    detect_entropy_plateau,
)
from .partitions import (
    FiniteProbabilitySpace,
    Partition,
    entropy,
    is_coarsening,
    join,
    make_space,
    shannon_bits,
)

__all__ = [
    "DEFAULT_WORD_CAP",
    "MAX_CYCLE_POINTS",
    "MAX_WORD_CAP",
    "CylinderDistribution",
    "InfoRateReport",
    "PermutationSystem",
    "SymbolicSystem",
    "TheoremCheckResult",
    "cyclic_system",
    "generating_partition",
    "info_rate_report",
    "is_chaotic",
    "iterated_join",
    "ks_entropy_family",
    "markov_entropy_rate",
    "parse_system_spec",
    "pullback_partition",
    "theorem_limit_point_check",
    "verify_generating_map",
]

#: Default cap on materialized word-distribution entries.
DEFAULT_WORD_CAP = 2**20

#: Ceiling on the word or atom cap: a larger cap is lowered to it.
MAX_WORD_CAP = 2**24

#: Ceiling on the points of a cyclic system.
MAX_CYCLE_POINTS = 2**20

_STATIONARITY_TOL = 1e-10
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class PermutationSystem:
    """A finite probability space with a measure-preserving permutation.

    ``mapping[i]`` is the image of point ``i``. Measure preservation for a
    permutation reduces to weight(mapping[i]) == weight(i), checked
    exactly up to 1e-12 on construction.
    """

    space: FiniteProbabilitySpace
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.space.size
        if len(self.mapping) != n:
            raise ValidationError(
                f"mapping of length {len(self.mapping)} on a space of {n} points"
            )
        mapping = np.asarray(self.mapping)
        if mapping.dtype.kind not in "iu" or not np.array_equal(
            np.sort(mapping), np.arange(n)
        ):
            raise ValidationError("mapping is not a permutation of the point indices")
        w = self.space.weight_array
        drift = np.abs(w[mapping] - w) > _WEIGHT_TOL
        if drift.any():
            i = int(drift.argmax())
            raise ValidationError(
                f"weight not preserved at point {i}: "
                f"{float(w[i])!r} -> {float(w[mapping[i]])!r}"
            )

    @cached_property
    def _mapping_array(self) -> np.ndarray:
        arr = np.asarray(self.mapping, dtype=np.int64)
        arr.setflags(write=False)
        return arr


def cyclic_system(n_points: int) -> PermutationSystem:
    """The cyclic shift i -> i + 1 (mod n) on n uniform points.

    More than ``MAX_CYCLE_POINTS`` points is a :class:`ResourceCapError`,
    raised before anything is allocated.
    """
    if n_points < 1:
        raise ValidationError(f"need at least one point, got {n_points}")
    if n_points > MAX_CYCLE_POINTS:
        raise ResourceCapError(
            f"cycle of {n_points} points exceeds the ceiling of {MAX_CYCLE_POINTS}"
        )
    space = make_space(tuple(range(n_points)), (1.0 / n_points,) * n_points)
    return PermutationSystem(space, tuple((i + 1) % n_points for i in range(n_points)))


@dataclass(frozen=True)
class SymbolicSystem:
    """Left shift over a finite alphabet with a Bernoulli or Markov measure.

    ``marginal`` is the single-symbol distribution (the Bernoulli vector
    p, or the stationary vector pi). ``transition`` is None for Bernoulli
    and the row-stochastic matrix Q for Markov, with pi Q = pi required to
    hold within 1e-10.
    """

    marginal: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.marginal, dtype=float)
        if p.size < 2:
            raise ValidationError("alphabet needs at least two symbols")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValidationError("marginal must be a probability vector")
        if abs(float(p.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"marginal sums to {float(p.sum())!r}, not 1")
        if self.transition is not None:
            q = np.asarray(self.transition, dtype=float)
            if q.shape != (p.size, p.size):
                raise ValidationError(
                    f"transition shape {q.shape} does not match alphabet size {p.size}"
                )
            if np.any(q < 0.0) or not np.all(np.isfinite(q)):
                raise ValidationError("transition entries must be nonnegative")
            rows = q.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > _WEIGHT_TOL):
                raise ValidationError(f"transition rows sum to {rows!r}, not 1")
            drift = float(np.abs(p @ q - p).max())
            if drift > _STATIONARITY_TOL:
                raise ValidationError(
                    f"marginal is not stationary for the transition matrix "
                    f"(max |pi Q - pi| = {drift!r})"
                )

    @classmethod
    def bernoulli(cls, probabilities: Iterable[float]) -> "SymbolicSystem":
        return cls(
            tuple(
                _number(x, f"probability {i}") for i, x in enumerate(probabilities)
            ),
            None,
        )

    @classmethod
    def markov(
        cls,
        transition: Iterable[Iterable[float]],
        stationary: Iterable[float] | None = None,
    ) -> "SymbolicSystem":
        """Markov shift from Q, deriving the stationary vector if not given."""
        rows = [
            [_number(x, f"transition entry [{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(transition)
        ]
        if len({len(row) for row in rows}) > 1:
            raise ValidationError(
                f"transition rows have unequal lengths {[len(row) for row in rows]}"
            )
        q = np.asarray(rows, dtype=float)
        if stationary is None:
            pi = _stationary_vector(q)
        else:
            pi = np.asarray(
                [_number(x, f"stationary entry {i}") for i, x in enumerate(stationary)],
                dtype=float,
            )
        return cls(tuple(pi.tolist()), tuple(tuple(row) for row in q.tolist()))

    @property
    def kind(self) -> str:
        return "bernoulli" if self.transition is None else "markov"

    @property
    def alphabet_size(self) -> int:
        return len(self.marginal)

    @cached_property
    def symbol_space(self) -> FiniteProbabilitySpace:
        """The alphabet as a probability space under the single-symbol law."""
        m = self.alphabet_size
        return make_space(tuple(str(s) for s in range(m)), self.marginal)


def _number(value: object, what: str) -> float:
    """``float(value)``, or a :class:`ValidationError` naming the bad entry.

    Strings and booleans are refused although ``float`` reads them.
    """
    if not isinstance(value, (str, bool)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{what} is not a number: {value!r}")


def _stationary_vector(q: np.ndarray) -> np.ndarray:
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValidationError("transition entries must be finite")
    eigvals, eigvecs = np.linalg.eig(q.T)
    near_one = np.abs(eigvals - 1.0) <= 1e-8
    if not near_one.any():
        raise ValidationError("transition matrix has no eigenvalue 1")
    if np.count_nonzero(near_one) > 1:
        raise ValidationError(
            "eigenvalue 1 of the transition matrix is degenerate "
            f"(multiplicity {np.count_nonzero(near_one)}): the chain is reducible "
            "and has more than one stationary vector; pass stationary= explicitly"
        )
    k = int(near_one.argmax())
    v = np.real(eigvecs[:, k])
    total = v.sum()
    if abs(total) < 1e-300:
        raise ValidationError("degenerate stationary eigenvector")
    pi = v / total
    if np.any(pi < -1e-12):
        raise ValidationError("stationary vector has negative entries")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def generating_partition(system: SymbolicSystem) -> Partition:
    """One atom per symbol, the partition whose joins are the cylinders."""
    return Partition.discrete(system.symbol_space)


def markov_entropy_rate(
    stationary: Iterable[float],
    transition: Iterable[Iterable[float]],
) -> float:
    """Closed-form entropy rate of a stationary Markov chain, in bits.

    Computes -sum_i pi_i sum_j Q_ij log2 Q_ij after checking that Q is
    row stochastic and pi is stationary within 1e-10. Serves as the
    independent oracle for the enumeration-based rate estimate.
    """
    system = SymbolicSystem.markov(transition, stationary)
    pi = np.asarray(system.marginal, dtype=float)
    q = np.asarray(system.transition, dtype=float)
    rows = np.array([shannon_bits(row) for row in q])
    return float(pi @ rows)


def pullback_partition(system: PermutationSystem, partition: Partition) -> Partition:
    """Preimage partition T^{-1}P: point i joins the atom holding T(i).

    Preserves atom probabilities because the permutation preserves
    weights.
    """
    if partition.space != system.space:
        raise ValidationError("partition does not live on the system's space")
    return Partition._from_labels(
        system.space, partition.atom_index_array[system._mapping_array]
    )


@dataclass(frozen=True, eq=False)
class CylinderDistribution:
    """Exact distribution over reduced words of a fixed length.

    Stands in for the n-fold join on a symbolic system, whose atoms are
    cylinder sets. ``labels`` records the symbol -> group map that reduced
    the alphabet (identity for the generating partition).
    """

    word_length: int
    group_count: int
    labels: tuple[int, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.probabilities.setflags(write=False)

    @property
    def entropy_bits(self) -> float:
        return shannon_bits(self.probabilities)

    def __len__(self) -> int:
        return int(self.probabilities.size)


def _symbol_labels(system: SymbolicSystem, partition: Partition | None) -> np.ndarray:
    """Symbol index -> atom index under a partition of the alphabet."""
    m = system.alphabet_size
    if partition is None:
        return np.arange(m, dtype=np.int64)
    if partition.space != system.symbol_space:
        raise ValidationError(
            "partition must live on the system's symbol space "
            "(see SymbolicSystem.symbol_space)"
        )
    owner = partition.atom_index_array.copy()
    owner[owner < 0] = 0  # zero-weight symbols: group is irrelevant
    return owner


def _positive_cap(cap: int) -> int:
    """The cap, lowered to ``MAX_WORD_CAP`` when it is larger."""
    cap = int(cap)
    if cap < 1:
        raise ValidationError(f"cap must be positive, got {cap}")
    return min(cap, MAX_WORD_CAP)


def _check_cap(entries: int, cap: int) -> None:
    if entries <= cap:
        return
    if cap >= MAX_WORD_CAP:
        raise ResourceCapError(
            f"word enumeration needs {entries} entries, over the ceiling of "
            f"{MAX_WORD_CAP} (a larger cap is lowered to it); lower n_max"
        )
    raise ResourceCapError(
        f"word enumeration needs {entries} entries, over the cap of {cap}; "
        "raise the cap explicitly or lower n_max"
    )


def _joins(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None,
    n_max: int,
    cap: int,
) -> Iterator[Partition | np.ndarray]:
    """The n-fold joins join_{k<n} T^{-k}P for n = 1..n_max, at least n = 1.

    A permutation system yields each join as a :class:`Partition` and
    fails once one has more than ``cap`` atoms. A symbolic system yields
    the exact probability vector of the length-n words reduced through the
    symbol partition (the generating partition when ``partition`` is
    None), and fails before it would hold more than ``cap`` entries. The
    words grow by one broadcast product with the step, the row p of a
    Bernoulli shift or the matrix Q of a Markov shift; a lumped Bernoulli
    shift is the Bernoulli shift of its group masses. A lumped Markov
    alphabet grows a table over (reduced word, current symbol), since the
    next symbol's law depends on the current symbol and not on its group.
    The inputs are checked on the first ``next``, before anything is yielded.
    """
    if isinstance(system, PermutationSystem):
        if partition is None:
            raise ValidationError("a permutation system needs an explicit partition")
        cap = _positive_cap(cap)
        if partition.space != system.space:
            raise ValidationError("partition does not live on the system's space")
        joined = pulled = partition
        yield joined
        for _ in range(1, n_max):
            pulled = pullback_partition(system, pulled)
            joined = join(joined, pulled)
            _check_cap(joined.n_atoms, cap)
            yield joined
        return
    labels = _symbol_labels(system, partition)
    cap = _positive_cap(cap)
    groups = int(labels.max()) + 1
    p = np.asarray(system.marginal, dtype=float)
    if system.transition is None:
        p = step = np.bincount(labels, weights=p)
    else:
        step = np.asarray(system.transition, dtype=float)
    m = p.size
    symbols = np.arange(m)
    if system.transition is None or np.array_equal(labels, symbols):
        _check_cap(m, cap)
        words = p
        yield words
        for _ in range(1, n_max):
            _check_cap(words.size * m, cap)
            words = (words.reshape(-1, m, 1) * step).reshape(-1)
            yield words
        return
    _check_cap(groups * m, cap)
    table = np.zeros((groups, m))
    table[labels, symbols] = p
    yield table.sum(axis=1)
    for _ in range(1, n_max):
        _check_cap(table.shape[0] * groups * m, cap)
        grown = np.zeros((table.shape[0], groups, m))
        grown[:, labels, symbols] = table @ step
        table = grown.reshape(-1, m)
        yield table.sum(axis=1)


def iterated_join(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None,
    n: int,
    *,
    cap: int = DEFAULT_WORD_CAP,
) -> Partition | CylinderDistribution:
    """The n-fold join of pullbacks, join_{k<n} T^{-k}P.

    For a permutation system the result is an explicit partition and each
    n + 1 result refines the n result. For a symbolic system it is the
    exact length-n cylinder word distribution (reduced through the symbol
    partition when one is given; default is the generating partition).
    """
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    for joined in _joins(system, partition, n, cap):
        pass
    if isinstance(system, PermutationSystem):
        return joined
    labels = _symbol_labels(system, partition)
    return CylinderDistribution(
        word_length=n,
        group_count=int(labels.max()) + 1,
        labels=tuple(labels.tolist()),
        probabilities=joined,
    )


@dataclass(frozen=True)
class InfoRateReport:
    """Exact block entropies and the information production rate estimate.

    ``block_entropies[k]`` is H_{k+1} in bits, ``rates`` the H_n / n
    sequence, ``increments`` the differences H_n - H_{n-1} from n = 2 on.
    ``h_estimate`` is the final increment. ``converged`` reports whether
    the last increments agree within ``tolerance`` (spread of the last
    three, or of all of them when fewer exist).
    """

    n_max: int
    block_entropies: tuple[float, ...]
    rates: tuple[float, ...]
    increments: tuple[float, ...]
    h_estimate: float
    converged: bool
    tolerance: float


def info_rate_report(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None = None,
    n_max: int = 16,
    *,
    tol: float = 1e-6,
    cap: int = DEFAULT_WORD_CAP,
) -> InfoRateReport:
    """Exact H_n for n = 1..n_max and the rate estimate H_n - H_{n-1}.

    Args:
        system: permutation or symbolic system.
        partition: partition of the system's space (permutation) or of its
            symbol space (symbolic; default is the generating partition).
        n_max: number of block lengths to materialize, at least 2.
        tol: stabilization tolerance for the convergence flag.
        cap: hard bound on materialized words or atoms.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be at least 2, got {n_max}")
    measure = entropy if isinstance(system, PermutationSystem) else shannon_bits
    h = tuple(measure(joined) for joined in _joins(system, partition, n_max, cap))
    increments = tuple(b - a for a, b in zip(h, h[1:]))
    tail = increments[-3:]
    return InfoRateReport(
        n_max=len(h),
        block_entropies=h,
        rates=tuple(x / (k + 1) for k, x in enumerate(h)),
        increments=increments,
        h_estimate=increments[-1],
        converged=(max(tail) - min(tail)) < tol,
        tolerance=tol,
    )


def ks_entropy_family(
    system: PermutationSystem | SymbolicSystem,
    family: Sequence[Partition],
    n_max: int = 16,
    *,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Largest rate estimate over a finite family of partitions.

    A lower bound for the supremum over all partitions, honest rather
    than exhaustive: enlarging the family can only raise it.
    """
    if not family:
        raise ValidationError("the partition family must not be empty")
    return max(info_rate_report(system, p, n_max, cap=cap).h_estimate for p in family)


def is_chaotic(
    system: PermutationSystem | SymbolicSystem,
    family: Sequence[Partition],
    tol: float = 1e-6,
    n_max: int = 16,
    *,
    cap: int = DEFAULT_WORD_CAP,
) -> bool:
    """True when the family-restricted rate supremum exceeds ``tol``."""
    return ks_entropy_family(system, family, n_max, cap=cap) > tol


@dataclass(frozen=True)
class TheoremCheckResult:
    """Joint verdict of plateau detection and the rate estimate.

    ``consistent`` encodes the implication "refinements' flow with a limit
    point forces rate zero": it is False only when the plateau is
    witnessed yet the rate estimate stays at or above epsilon.
    """

    verdict: LimitPointVerdict
    h_estimate: float
    consistent: bool
    report: InfoRateReport


def theorem_limit_point_check(
    system: PermutationSystem | SymbolicSystem,
    partition: Partition | None = None,
    *,
    epsilon: float = DEFAULT_EPSILON,
    window: int | None = None,
    n_max: int = 24,
    cap: int = DEFAULT_WORD_CAP,
) -> TheoremCheckResult:
    """Check the join flow of a system for a limit point and rate zero.

    Materializes the entropy sequence of {join_{k<n} T^{-k}P} up to
    ``n_max``, runs plateau detection on it, and compares the verdict
    against the rate estimate.
    """
    report = info_rate_report(system, partition, n_max, cap=cap)
    verdict = detect_entropy_plateau(
        report.block_entropies,
        epsilon=epsilon,
        window=window,
        horizon=report.n_max,
    )
    consistent = verdict.status != "witnessed" or report.h_estimate < epsilon
    return TheoremCheckResult(
        verdict=verdict,
        h_estimate=report.h_estimate,
        consistent=consistent,
        report=report,
    )


def verify_generating_map(
    system: PermutationSystem | SymbolicSystem,
    ref_flow: PartitionFlow | None = None,
    n_max: int | None = None,
    *,
    cap: int = DEFAULT_WORD_CAP,
    tol: float = 1e-12,
) -> bool:
    """Check that a refinements' flow is the join flow of its first member.

    For a permutation system, compares join_{k<n} T^{-k}(ref_flow[0])
    against ref_flow[n-1] canonically for every n up to ``n_max`` (default
    the flow length). For a symbolic system the cylinder flow is the
    reference and cannot be materialized as finite partitions; there the
    check verifies the consistency that makes it a refinements' flow,
    namely that each length-(n+1) word distribution marginalizes onto the
    length-n one within ``tol``.
    """
    if isinstance(system, PermutationSystem):
        if ref_flow is None:
            raise ValidationError("a permutation system needs an explicit flow")
        limit = len(ref_flow) if n_max is None else min(n_max, len(ref_flow))
        # every join is built, so the cap is enforced past a first mismatch
        joins = _joins(system, ref_flow[0], limit, cap)
        return all([joined == ref_flow[n] for n, joined in enumerate(joins)])
    previous = None
    for current in _joins(system, None, 8 if n_max is None else n_max, cap):
        if previous is not None:
            marginal = current.reshape(-1, system.alphabet_size).sum(axis=1)
            if float(np.abs(marginal - previous).max()) > tol:
                return False
        previous = current
    return True


def parse_system_spec(text: str) -> PermutationSystem | SymbolicSystem:
    """Parse a compact system spec string.

    Formats:
        ``bernoulli:0.5,0.5``                 product measure over the listed p
        ``markov:[[0.9,0.1],[0.5,0.5]]``      Markov shift, stationary pi derived
        ``cycle:4``                           cyclic shift on n uniform points
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValidationError(
            f"system spec {text!r} needs the form kind:parameters"
        )
    kind = head.strip().lower()
    body = body.strip()
    if kind == "bernoulli":
        try:
            probs = [float(x) for x in body.split(",")]
        except ValueError:
            raise ValidationError(f"bad bernoulli probabilities {body!r}") from None
        return SymbolicSystem.bernoulli(probs)
    if kind == "markov":
        try:
            matrix = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad markov matrix {body!r}: {exc}") from None
        if not (
            isinstance(matrix, list)
            and matrix
            and all(isinstance(row, list) for row in matrix)
        ):
            raise ValidationError(f"markov matrix {body!r} must be a list of rows")
        return SymbolicSystem.markov(matrix)
    if kind == "cycle":
        try:
            n = int(body)
        except ValueError:
            raise ValidationError(f"bad cycle size {body!r}") from None
        return cyclic_system(n)
    raise ValidationError(
        f"unknown system kind {kind!r} (expected bernoulli, markov, or cycle)"
    )
