"""Independent routes that every benchmark operation is checked against.

Nothing here imports entroflow. Each checker recomputes the numbers an
operation should print from the operation's own inputs, by a route the
program does not take, and raises :class:`Mismatch` when the program's
output disagrees:

* block-spin entropies from log-domain Boltzmann weights, majority block
  variables coded as integers, and ``np.bincount``;
* permutation joins as the distinct length-n label windows of the cycle;
* shift block entropies from closed forms (Bernoulli ``n H(p)``, Markov
  ``H(pi) + (n - 1) h`` with ``pi`` from a linear solve), and lumped
  chains from a direct word enumeration with Birch's bracket on the rate;
* Ising partition functions from a log-sum-exp enumeration and
  decimation steps from the identity ``T(K)^2 = c T(K')``;
* partition documents from label arrays.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

#: Absolute tolerance on entropies in bits.
ENTROPY_TOL = 1e-9
#: Relative tolerance on partition functions and decimation identities.
REL_TOL = 1e-10


class Mismatch(Exception):
    """A program output disagrees with the independent route."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def expect_close(actual, expected, tol: float, what: str) -> None:
    """|actual - expected| <= tol, elementwise for sequences."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    expect(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    worst = float(np.max(np.abs(a - e), initial=0.0))
    expect(worst <= tol, f"{what}: off by {worst!r} (tolerance {tol!r})")


def expect_rel(actual: float, expected: float, tol: float, what: str) -> None:
    scale = max(abs(expected), 1e-300)
    delta = abs(actual - expected) / scale
    expect(delta <= tol, f"{what}: {actual!r} vs {expected!r}, relative {delta!r}")


def shannon_bits(mass) -> float:
    p = np.asarray(mass, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def last_record(stdout: str) -> dict:
    """The JSON record a subcommand prints as its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    expect(bool(lines), "no record on stdout")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not a JSON record: {exc.msg}") from None


def read_table(path: str | Path) -> dict[str, list]:
    """Columns of a delimited (CSV) or structured (JSON) output file."""
    text = Path(path).read_text()
    if text.startswith("{"):
        return json.loads(text)
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    columns: dict[str, list] = {name: [] for name in header}
    for row in rows[1:]:
        cells = row.split(",")
        expect(len(cells) == len(header), f"{path}: ragged row {row!r}")
        for name, cell in zip(header, cells):
            columns[name].append(cell if name == "name" else float(cell))
    return columns


def read_footer(path: str | Path) -> dict[str, str]:
    """``# key=value`` lines of a delimited output file."""
    footer = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            footer[key] = value
    return footer


def plateau_verdict(values: Sequence[float], epsilon: float, window: int):
    """(status, witness_index, tail_spread) by the documented plateau rule.

    witnessed: the last ``window`` values spread less than epsilon; the
    witness is the earliest start whose whole suffix does. refuted: every
    step moves the same way by at least epsilon. Otherwise inconclusive.
    """
    h = [float(x) for x in values]
    spread = max(h[-window:]) - min(h[-window:])
    if spread < epsilon:
        start = len(h) - window
        while start > 0 and max(h[start - 1:]) - min(h[start - 1:]) < epsilon:
            start -= 1
        return "witnessed", start, spread
    steps = [b - a for a, b in zip(h, h[1:])]
    if steps and (all(s >= epsilon for s in steps) or all(s <= -epsilon for s in steps)):
        return "refuted", None, spread
    return "inconclusive", None, spread


def check_verdict(record: dict, values: Sequence[float], epsilon: float,
                  window: int, what: str) -> None:
    status, witness, spread = plateau_verdict(values, epsilon, window)
    expect(record["status"] == status,
           f"{what}: status {record['status']!r}, expected {status!r}")
    expect(record["witness_index"] == witness,
           f"{what}: witness {record['witness_index']!r}, expected {witness!r}")
    expect_close(record["tail_spread"], spread, ENTROPY_TOL, f"{what} tail spread")


# ---------------------------------------------------------------------------
# blockspin_cap: chained majority blocks on the enumerated Gibbs measure


def block_spin_reference(k0: float, k1: float, sites: int, block: int,
                         levels: int) -> tuple[list[int], list[float]]:
    """Atom counts and entropies of the chained majority block levels.

    Weights are normalised in the log domain; each level's block
    variables are packed into one integer per configuration and the
    level's atom masses are a single ``np.bincount``. Spins are int8 and
    each site is taken one at a time, so no (2^sites, sites) array wider
    than one byte per entry is ever held: this checker runs in the
    measured process and must not set its ``peak_rss_mb``.
    """
    index = np.arange(1 << sites, dtype=np.int64)
    spins = np.empty((index.size, sites), dtype=np.int8)
    for j in range(sites):
        spins[:, j] = 1 - 2 * ((index >> j) & 1)
    field = np.zeros(index.size)
    bonds = np.zeros(index.size)
    for j in range(sites):
        field += spins[:, j]
        bonds += spins[:, j] * spins[:, (j + 1) % sites]
    del index
    log_w = k0 * field + k1 * bonds
    del field, bonds
    log_z = log_w.max() + math.log(np.exp(log_w - log_w.max()).sum())
    prob = np.exp(log_w - log_z)
    variables = spins
    counts, entropies = [], []
    for _ in range(levels):
        blocks = variables.reshape(variables.shape[0], -1, block)
        total = blocks.sum(axis=2, dtype=np.int8)
        variables = np.where(total == 0, blocks[:, :, 0], np.sign(total)).astype(np.int8)
        code = np.zeros(variables.shape[0], dtype=np.int64)
        for j in range(variables.shape[1]):
            code |= (variables[:, j] > 0).astype(np.int64) << j
        mass = np.bincount(code, weights=prob)
        counts.append(int(np.count_nonzero(mass)))
        entropies.append(shannon_bits(mass))
    return counts, entropies


def check_entropy_flow(params: dict, record: dict, table: dict) -> None:
    """``entropy-flow`` stdout record and ``--out`` table against the reference."""
    for key in ("k0", "k1"):
        expect(record[key] == params[key], f"{key} echoed as {record[key]!r}")
    expect(record["sites"] == params["sites"], "sites not echoed")
    levels = params["levels"]
    expect(record["levels"] == levels, "levels not echoed")
    counts, entropies = block_spin_reference(
        params["k0"], params["k1"], params["sites"], params["block"], levels
    )
    printed = record["entropies"]
    expect_close(printed, entropies, ENTROPY_TOL, "level entropies")
    expect(list(table["level"]) == list(range(levels)), "level column")
    expect(list(table["atoms"]) == counts,
           f"atom counts {table['atoms']!r}, expected {counts!r}")
    expect(list(table["H_bits"]) == list(printed), "file entropies differ from stdout")
    expect(all(b <= a + 1e-12 for a, b in zip(printed, printed[1:])),
           f"entropy increased along the coarse graining: {printed!r}")
    if levels == 1:
        for key in ("coarse_verdict", "refinement_verdict"):
            expect(record[key] == {"status": "witnessed", "witness_index": 0,
                                   "tail_spread": 0.0}, f"{key} for one level")
        return
    window = min(levels, 8)
    check_verdict(record["coarse_verdict"], entropies, 1e-9, window, "coarse verdict")
    check_verdict(record["refinement_verdict"], entropies[::-1], 1e-9, window,
                  "refinement verdict")


# ---------------------------------------------------------------------------
# perm_joins: the cycle's join flow as label windows


def window_entropies(labels: Sequence[int], n_max: int) -> tuple[list[int], list[float]]:
    """Atoms and entropies of join_{k<n} T^{-k}P on the uniform cycle.

    Point i of the join is the window (label[i], ..., label[i + n - 1])
    taken cyclically; each window is packed into one exact integer.
    """
    lab = np.asarray(labels, dtype=np.int64)
    base = int(lab.max()) + 1
    expect(n_max * math.log2(max(base, 2)) < 62, "windows do not fit in int64")
    code = np.zeros_like(lab)
    counts, entropies = [], []
    for k in range(n_max):
        code = code * base + np.roll(lab, -k)
        _, sizes = np.unique(code, return_counts=True)
        counts.append(int(sizes.size))
        entropies.append(shannon_bits(sizes / lab.size))
    return counts, entropies


def check_block_table(table: dict, expected: Sequence[float], tol: float) -> list[float]:
    """``ks --out`` rows: n = 1.., H_n against ``expected``, rate = H_n / n."""
    h = [float(x) for x in table["H_n"]]
    rate = table["rate"] if "rate" in table else table["H_n/n"]
    expect([int(n) for n in table["n"]] == list(range(1, len(h) + 1)), "n column")
    expect_close(h, expected, tol, "block entropies H_n")
    expect_close(rate, [x / (i + 1) for i, x in enumerate(h)], 1e-12, "H_n/n column")
    return h


def check_ks_record(record: dict, system: str, h: Sequence[float],
                    h_estimate: float, tol: float) -> None:
    """``ks`` stdout record: echo, final increment, convergence flag."""
    expect(record["system"] == system, "system not echoed")
    expect(record["n_max"] == len(h), f"n_max {record['n_max']!r}")
    expect_close(record["h_estimate"], h_estimate, ENTROPY_TOL, "h_estimate")
    tail = np.diff(h)[-3:]
    spread = float(tail.max() - tail.min())
    if abs(spread - tol) > ENTROPY_TOL:
        expect(record["converged"] == (spread < tol), "converged flag")


def check_theorem_record(record: dict, system: str, values: Sequence[float],
                         epsilon: float = 1e-9, window: int = 8) -> None:
    """``theorem-check`` record against an independently known H_n sequence."""
    expect(record["system"] == system, "system not echoed")
    h_estimate = values[-1] - values[-2]
    expect_close(record["h_estimate"], h_estimate, ENTROPY_TOL, "h_estimate")
    check_verdict(record["verdict"], values, epsilon, min(window, len(values)), "verdict")
    witnessed = record["verdict"]["status"] == "witnessed"
    expect(record["consistent"] == (not witnessed or record["h_estimate"] < epsilon),
           "consistent flag")


# ---------------------------------------------------------------------------
# shift_words: closed forms, and word enumeration for lumped chains


def stationary_vector(q) -> np.ndarray:
    """pi with pi Q = pi and sum(pi) = 1, from one linear solve."""
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    a = q.T - np.eye(m)
    a[-1] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def markov_rate(pi, q) -> float:
    """-sum_i pi_i sum_j Q_ij log2 Q_ij in bits."""
    pi = np.asarray(pi, dtype=float)
    return float(sum(pi[i] * shannon_bits(row) for i, row in enumerate(np.asarray(q))))


def closed_form_entropies(spec: dict, n_max: int) -> list[float]:
    """H_n of the generating partition: n H(p), or H(pi) + (n - 1) h."""
    if spec["kind"] == "bernoulli":
        h = shannon_bits(spec["p"])
        return [n * h for n in range(1, n_max + 1)]
    pi = stationary_vector(spec["q"])
    h = markov_rate(pi, spec["q"])
    return [shannon_bits(pi) + (n - 1) * h for n in range(1, n_max + 1)]


def lumped_word_entropies(q, groups: Sequence[int], n_max: int):
    """Enumerated H(Y_1..Y_n) and H(X_1, Y_1..Y_n), n = 1..n_max.

    X is the stationary Markov chain on m symbols and Y_k = groups[X_k].
    Every length-n symbol word is enumerated with its probability, then
    the words are summed by their group word (and first symbol).
    """
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    g = np.asarray(groups, dtype=np.int64)
    n_groups = int(g.max()) + 1
    prob = stationary_vector(q)
    first = np.arange(m)
    code = g.copy()
    plain, with_first = [], []
    for n in range(1, n_max + 1):
        if n > 1:
            last = np.arange(prob.size) % m
            prob = (prob[:, None] * q[last]).ravel()
            code = (code[:, None] * n_groups + g[None, :]).ravel()
            first = np.repeat(first, m)
        plain.append(shannon_bits(np.bincount(code, weights=prob)))
        with_first.append(shannon_bits(np.bincount(code * m + first, weights=prob)))
    return plain, with_first


def birch_bracket(q, groups: Sequence[int], n: int) -> tuple[float, float]:
    """Birch's bounds H(Y_n | Y_<n, X_1) <= h <= H(Y_n | Y_<n)."""
    plain, with_first = lumped_word_entropies(q, groups, n)
    return with_first[-1] - with_first[-2], plain[-1] - plain[-2]


#: Word length up to which lumped block entropies are enumerated directly.
LUMPED_ENUMERATION = 7


def check_lumped_table(spec: dict, table: dict) -> list[float]:
    """``ks --out`` rows of a lumped chain: enumeration, then monotonicity."""
    h = [float(x) for x in table["H_n"]]
    plain, _ = lumped_word_entropies(spec["q"], spec["groups"], LUMPED_ENUMERATION)
    head = {key: list(column)[:LUMPED_ENUMERATION] for key, column in table.items()}
    check_block_table(head, plain, ENTROPY_TOL)
    increments = np.diff(h)
    expect(bool(np.all(increments >= -1e-12)), "H_n decreased")
    expect(bool(np.all(np.diff(increments) <= 1e-10)), "H_n increments increased")
    return h


def check_lumped_rate(spec: dict, h_estimate: float) -> tuple[float, float]:
    lower, upper = birch_bracket(spec["q"], spec["groups"], LUMPED_ENUMERATION)
    expect(lower - ENTROPY_TOL <= h_estimate <= upper + ENTROPY_TOL,
           f"h_estimate {h_estimate!r} outside Birch bracket [{lower!r}, {upper!r}]")
    return lower, upper


# ---------------------------------------------------------------------------
# ising_cli: partition functions, decimation steps, partition documents


def log_z_bruteforce(k0: float, k1: float, n: int) -> float:
    """log Z of the periodic chain by log-sum-exp over all 2^n configurations."""
    index = np.arange(1 << n, dtype=np.int64)
    spins = np.where((index[:, None] >> np.arange(n)) & 1, -1, 1)
    log_w = k0 * spins.sum(axis=1) + k1 * (spins * np.roll(spins, -1, axis=1)).sum(axis=1)
    top = float(log_w.max())
    return top + math.log(float(np.exp(log_w - top).sum()))


def check_ising_z(params: dict, record: dict) -> None:
    """``ising-z`` record against the log-sum-exp enumeration."""
    k0, k1, n = params["k0"], params["k1"], params["n"]
    expect((record["k0"], record["k1"], record["n"]) == (k0, k1, n), "couplings not echoed")
    log_z = log_z_bruteforce(k0, k1, n)
    expect_close(record["log_z"], log_z, REL_TOL * max(1.0, abs(log_z)), "log Z")
    expect(("z" in record) != params.get("log", False), "z present iff --log is absent")
    if "z" in record:
        expect_rel(record["z"], math.exp(log_z), REL_TOL, "Z")
    if params.get("check_bruteforce"):
        expect_rel(record["bruteforce_z"], math.exp(log_z), REL_TOL, "brute-force Z")
        expect(record["bruteforce_delta"] <= params.get("tol", 1e-12), "bruteforce_delta")


def transfer_v(v0: float, v1: float) -> np.ndarray:
    """T(K) written in V_i = exp(-K_i)."""
    return np.array([[1.0 / (v0 * v1), v1], [v1, v0 / v1]])


def check_decimation(v_from: tuple[float, float], v_to: tuple[float, float],
                     c: float, what: str) -> None:
    """c T(K') = T(K)^2 to REL_TOL relative to the largest entry."""
    square = transfer_v(*v_from) @ transfer_v(*v_from)
    residual = float(np.abs(c * transfer_v(*v_to) - square).max() / np.abs(square).max())
    expect(residual <= REL_TOL, f"{what}: c T(K') vs T(K)^2 residual {residual!r}")


def check_rg_trajectory(params: dict, record: dict, table: dict, footer: dict) -> None:
    """``ising-rg`` record and rows: each step squares T, the end is on V1 = 1."""
    start = (params["v0"], params["v1"])
    expect(record["start"] == list(start), "start not echoed")
    expect(record["diverged"] is False, "trajectory diverged")
    steps = len(table["step"])
    expect(record["steps_used"] == steps, "steps_used differs from the rows")
    expect(0 < steps <= params["steps"], f"{steps} steps for a limit of {params['steps']}")
    expect(list(table["step"]) == list(range(1, steps + 1)), "step column")
    previous = start
    for i in range(steps):
        current = (table["V0"][i], table["V1"][i])
        check_decimation(previous, current, table["c"][i], f"step {i + 1}")
        previous = current
    end = record["converged_to"]
    expect(end is not None, "trajectory did not converge")
    expect(abs(end[1] - 1.0) <= 1e-8, f"converged_to {end!r} is off the fixed line V1 = 1")
    expect(max(abs(end[0] - previous[0]), abs(end[1] - previous[1])) <= params["tol"],
           "converged_to is not one stalled step from the last row")
    check_decimation(tuple(end), tuple(end), end[0] + 1.0 / end[0], "fixed line")
    expect(footer.get("converged_to") == f"{end[0]!r},{end[1]!r}", "footer converged_to")


def check_rg_sweep(params: dict, record: dict, table: dict) -> None:
    """``ising-rg --sweep-random`` record and rows."""
    count = params["sweep"]
    expect((record["sweep"], record["seed"]) == (count, params["seed"]), "sweep echo")
    expect(list(table["i"]) == list(range(count)), "sweep row count")
    for column in ("v0", "v1"):
        values = np.asarray(table[column])
        expect(bool(np.all((values > 0.0) & (values <= 1.0))), f"{column} outside (0, 1]")
    for column, key in (("delta_v0", "max_delta_v0"), ("delta_v1", "max_delta_v1")):
        expect(max(table[column]) == record[key], f"{key} is not the row maximum")
    tol = record["tolerance"]
    expect(max(record["max_delta_v0"], record["max_delta_v1"],
               record["max_rel_delta_c"]) <= tol, "sweep deltas exceed the tolerance")


def partition_reference(doc: dict) -> list[dict]:
    """Atom counts, atom masses and entropies of each partition in a document."""
    ids = doc["space"]["ids"]
    weights = np.asarray(doc["space"]["weights"], dtype=float)
    weights = weights / weights.sum()
    position = {pid: i for i, pid in enumerate(ids)}
    out = []
    for entry in doc["partitions"]:
        labels = np.full(len(ids), -1, dtype=np.int64)
        for k, atom in enumerate(entry["atoms"]):
            labels[[position[pid] for pid in atom]] = k
        # canonical atom order: by smallest point index
        _, first = np.unique(labels, return_index=True)
        order = labels[np.sort(first)]
        mass = np.bincount(labels, weights=weights)[order]
        out.append({"name": entry["name"], "labels": labels, "mass": mass,
                    "entropy": shannon_bits(mass)})
    return out


def check_partition_report(doc: dict, report: dict, pairwise: bool) -> None:
    """Structured ``partition`` report, with its pairwise section."""
    expected = partition_reference(doc)
    got = report["partitions"]
    expect([p["name"] for p in got] == [e["name"] for e in expected], "partition names")
    for p, e in zip(got, expected):
        expect(p["atom_count"] == e["mass"].size, f"{p['name']}: atom count")
        expect_close(p["atom_probabilities"], e["mass"], 1e-12, f"{p['name']} atom masses")
        expect_close(p["entropy_bits"], e["entropy"], ENTROPY_TOL, f"{p['name']} entropy")
    expect(("pairwise" in report) == pairwise, "pairwise section presence")
    if not pairwise:
        return
    weights = np.asarray(doc["space"]["weights"], dtype=float)
    weights = weights / weights.sum()
    pairs = [(a, b) for i, a in enumerate(expected) for b in expected[i + 1:]]
    expect(len(report["pairwise"]) == len(pairs), "pair count")
    for row, (a, b) in zip(report["pairwise"], pairs):
        expect((row["left"], row["right"]) == (a["name"], b["name"]), "pair order")
        cells = a["labels"] * (b["labels"].max() + 1) + b["labels"]
        _, cell = np.unique(cells, return_inverse=True)
        n_cells = int(cell.max()) + 1
        expect(row["join_atom_count"] == n_cells, f"{a['name']}v{b['name']}: join atoms")
        expect_close(row["join_entropy_bits"], shannon_bits(np.bincount(cell, weights=weights)),
                     ENTROPY_TOL, "join entropy")
        expect(row["left_coarsens_right"] == (n_cells == b["mass"].size), "left <= right")
        expect(row["right_coarsens_left"] == (n_cells == a["mass"].size), "right <= left")
        expect_close(row["pseudo_distance_bits"], abs(a["entropy"] - b["entropy"]),
                     ENTROPY_TOL, "pseudo-distance")


def check_partition_rows(doc: dict, table: dict) -> None:
    """Delimited ``partition`` rows: name, atom_count, entropy_bits."""
    expected = partition_reference(doc)
    expect(table["name"] == [e["name"] for e in expected], "row names")
    expect(table["atom_count"] == [e["mass"].size for e in expected], "row atom counts")
    expect_close(table["entropy_bits"], [e["entropy"] for e in expected], ENTROPY_TOL,
                 "row entropies")
