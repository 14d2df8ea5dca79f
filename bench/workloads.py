"""Benchmark workloads: seeded inputs and the CLI operations run on them.

Each workload turns a seed into a pool of rounds. A round is a fixed list
of operations; a run repeats whole rounds, so the share of operations
that fail is the same in every run. Within a workload every operation
has the same input sizes, so its operation times are alike. Each
operation carries the checker that compares its output against an
independent route in :mod:`checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import expect, last_record, read_footer, read_table


@dataclass(frozen=True)
class Outcome:
    """What one in-process ``entroflow.cli.run`` call produced."""

    code: int | None
    stdout: str
    stderr: str
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.code != 0


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its output.

    ``outputs`` are removed before the operation runs, so a check never
    reads a file left by an earlier operation. ``fault`` names the
    program fault that makes the operation fail today, if any.
    """

    argv: tuple[str, ...]
    check: Callable[[Outcome], None]
    outputs: tuple[Path, ...] = ()
    fault: str | None = None


def _op(argv, check, outputs=(), fault=None) -> Op:
    return Op(tuple(str(a) for a in argv), check, tuple(outputs), fault)


def _same_record_in_file(path: Path, outcome: Outcome) -> dict:
    record = last_record(outcome.stdout)
    expect(json.loads(path.read_text()) == record, f"{path.name} differs from stdout")
    return record


# ---------------------------------------------------------------------------
# blockspin_cap

#: The configuration cap: 2^16 configurations, blocks of 2, four levels.
BLOCKSPIN = {"sites": 16, "block": 2, "levels": 4}


def prepare_blockspin(rng: np.random.Generator, workdir: Path, rounds: int = 16):
    """Two ``entropy-flow`` runs per round: one antiferromagnetic, one not.

    Fields are nonzero with a random sign. |K| stays below 1.5, so every
    Boltzmann weight is far from underflow and no atom loses its mass.
    """
    pool = []
    for r in range(rounds):
        ops = []
        for j, sign in enumerate((-1.0, 1.0)):
            k0 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0))
            k1 = float(sign * rng.uniform(0.2, 1.5))
            fmt = ("delimited", "structured")[(r + j) % 2]
            out = workdir / f"flow{j}.{'csv' if fmt == 'delimited' else 'json'}"
            params = {"k0": k0, "k1": k1, **BLOCKSPIN}
            argv = ["entropy-flow", "--k0", repr(k0), "--k1", repr(k1),
                    "--sites", BLOCKSPIN["sites"], "--block", BLOCKSPIN["block"],
                    "--levels", BLOCKSPIN["levels"], "--out", out, "--format", fmt]

            def check(outcome, params=params, out=out):
                checks.check_entropy_flow(params, last_record(outcome.stdout), read_table(out))

            ops.append(_op(argv, check, (out,)))
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# perm_joins

CYCLE_POINTS = 4096
CYCLE_NMAX = 24
CYCLE_ARCS = 6
CYCLE_ATOMS = 3


def arc_labels(rng: np.random.Generator) -> np.ndarray:
    """Labels of a partition of the cycle into CYCLE_ATOMS unions of arcs.

    CYCLE_ARCS arcs of at least 2 * CYCLE_NMAX points each, neighbouring
    arcs in different atoms, so the join gains atoms at every step up to
    CYCLE_NMAX and every operation does the same amount of work.
    """
    while True:
        arc_atoms = rng.integers(0, CYCLE_ATOMS, CYCLE_ARCS)
        if len(set(arc_atoms.tolist())) == CYCLE_ATOMS and np.all(
            arc_atoms != np.roll(arc_atoms, 1)
        ):
            break
    slack = CYCLE_POINTS - CYCLE_ARCS * 2 * CYCLE_NMAX
    lengths = 2 * CYCLE_NMAX + rng.multinomial(slack, np.full(CYCLE_ARCS, 1 / CYCLE_ARCS))
    offset = int(rng.integers(CYCLE_POINTS))
    return np.roll(np.repeat(arc_atoms, lengths), offset)


def prepare_perm_joins(rng: np.random.Generator, workdir: Path, rounds: int = 48):
    """``ks`` then ``theorem-check`` on cycle:4096, each with its own partition."""
    system = f"cycle:{CYCLE_POINTS}"
    pool = []
    for r in range(rounds):
        ops = []
        for command in ("ks", "theorem-check"):
            labels = arc_labels(rng)
            atoms = json.dumps([np.flatnonzero(labels == k).tolist() for k in range(CYCLE_ATOMS)])
            argv = [command, "--system", system, "--nmax", CYCLE_NMAX, "--partition", atoms]
            if command == "ks":
                fmt = ("delimited", "structured")[r % 2]
                out = workdir / f"ks.{'csv' if fmt == 'delimited' else 'json'}"
                argv += ["--out", out, "--format", fmt]

                def check(outcome, out=out, labels=labels):
                    _, expected = checks.window_entropies(labels, CYCLE_NMAX)
                    h = checks.check_block_table(read_table(out), expected, checks.ENTROPY_TOL)
                    checks.check_ks_record(last_record(outcome.stdout), system, h,
                                           expected[-1] - expected[-2], 1e-6)
            else:
                out = workdir / "theorem.json"
                argv += ["--out", out]

                def check(outcome, out=out, labels=labels):
                    _, expected = checks.window_entropies(labels, CYCLE_NMAX)
                    checks.check_theorem_record(_same_record_in_file(out, outcome), system,
                                                expected)
            ops.append(_op(argv, check, (out,)))
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# shift_words

#: (kind, alphabet size, lumped into two groups, n_max): each fills the
#: 2^20 word cap, or comes within a factor of 4/3 of it.
SHIFTS = (
    ("bernoulli", 2, False, 20),
    ("bernoulli", 4, False, 10),
    ("markov", 2, False, 20),
    ("markov", 4, False, 10),
    ("markov", 3, True, 18),
    ("markov", 4, True, 18),
)


def _probability_vector(rng: np.random.Generator, m: int) -> list[float]:
    """A distribution with every entry at least 0.05, exact to 1e-15."""
    p = 0.05 + (1.0 - 0.05 * m) * rng.dirichlet(np.ones(m))
    p[-1] = 1.0 - p[:-1].sum()
    return [float(x) for x in p]


def _shift_spec(rng: np.random.Generator, kind: str, m: int, lumped: bool) -> tuple[str, dict]:
    if kind == "bernoulli":
        p = _probability_vector(rng, m)
        return "bernoulli:" + ",".join(repr(x) for x in p), {"kind": kind, "p": p}
    q = [_probability_vector(rng, m) for _ in range(m)]
    spec = {"kind": kind, "q": q}
    if lumped:
        while True:
            groups = rng.integers(0, 2, m)
            if 0 < groups.sum() < m:
                break
        spec["groups"] = [int(g) for g in groups]
    return "markov:" + json.dumps(q), spec


def prepare_shift_words(rng: np.random.Generator, workdir: Path, rounds: int = 48):
    """``ks`` and ``theorem-check`` on each shift in SHIFTS, fresh parameters each round."""
    pool = []
    for r in range(rounds):
        ops = []
        for s, (kind, m, lumped, n_max) in enumerate(SHIFTS):
            system, spec = _shift_spec(rng, kind, m, lumped)
            args = ["--system", system, "--nmax", n_max]
            if lumped:
                groups = spec["groups"]
                args += ["--partition", json.dumps(
                    [[i for i in range(m) if groups[i] == g] for g in (0, 1)])]
            fmt = ("delimited", "structured")[(r + s) % 2]
            out = workdir / f"ks{s}.{'csv' if fmt == 'delimited' else 'json'}"

            def check_ks(outcome, out=out, spec=spec, system=system, n_max=n_max):
                table = read_table(out)
                record = last_record(outcome.stdout)
                if "groups" in spec:
                    h = checks.check_lumped_table(spec, table)
                    checks.check_lumped_rate(spec, record["h_estimate"])
                    checks.check_ks_record(record, system, h, h[-1] - h[-2], 1e-6)
                else:
                    expected = checks.closed_form_entropies(spec, n_max)
                    h = checks.check_block_table(table, expected, checks.ENTROPY_TOL)
                    checks.check_ks_record(record, system, h, expected[-1] - expected[-2], 1e-6)

            def check_theorem(outcome, spec=spec, system=system, n_max=n_max):
                record = last_record(outcome.stdout)
                if "groups" in spec:
                    expect(record["system"] == system, "system not echoed")
                    lower, _ = checks.check_lumped_rate(spec, record["h_estimate"])
                    expect(lower > 1e-9, "Birch lower bound does not clear epsilon")
                    expect(record["verdict"]["status"] == "refuted",
                           "positive-rate lumped chain not refuted")
                    expect(record["consistent"] is True, "consistent flag")
                else:
                    checks.check_theorem_record(
                        record, system, checks.closed_form_entropies(spec, n_max))

            ops.append(_op(["ks", *args, "--out", out, "--format", fmt], check_ks, (out,)))
            ops.append(_op(["theorem-check", *args], check_theorem))
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# ising_cli

#: Operations that fail on every run because of named faults in ising.py.
#: Their inputs do not depend on the seed.
ISING_FAULTS = (
    ({"k0": 0.0, "k1": -300.0, "n": 3, "check_bruteforce": False},
     "eigenvalues overflows in exp(-4*K1) for K1 <= -177 (OverflowError, exit 1)"),
    ({"k0": 0.0, "k1": -8.0, "n": 3, "check_bruteforce": True},
     "lambda_+^N + lambda_-^N cancels on a frustrated odd ring (exit 4)"),
    ({"k0": 0.0, "k1": -20.0, "n": 3, "check_bruteforce": True},
     "the same cancellation reaches log1p(-1) (ValueError, exit 1)"),
)

SWEEP_SIZE = 32
PARTITION_POINTS = 12


def _ising_z_argv(params: dict) -> list:
    argv = ["ising-z", "--k0", repr(params["k0"]), "--k1", repr(params["k1"]),
            "--n", params["n"]]
    if params.get("check_bruteforce"):
        argv.append("--check-bruteforce")
    if params.get("log"):
        argv.append("--log")
    return argv


def _ising_z_op(params: dict, fault=None) -> Op:
    def check(outcome):
        checks.check_ising_z(params, last_record(outcome.stdout))
    return _op(_ising_z_argv(params), check, fault=fault)


def _trajectory_op(params: dict, out: Path) -> Op:
    argv = ["ising-rg", "--v0", repr(params["v0"]), "--v1", repr(params["v1"]),
            "--steps", params["steps"], "--tol", repr(params["tol"]), "--out", out]

    def check(outcome):
        checks.check_rg_trajectory(params, last_record(outcome.stdout), read_table(out),
                                   read_footer(out))
    return _op(argv, check, (out,))


def _partition_document(rng: np.random.Generator) -> dict:
    ids = [f"x{i}" for i in range(PARTITION_POINTS)]
    partitions = []
    for name in ("A", "B", "C"):
        k = int(rng.integers(2, 5))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, PARTITION_POINTS - k)])
        rng.shuffle(labels)
        partitions.append({"name": name, "atoms": [
            [ids[i] for i in np.flatnonzero(labels == a)] for a in range(k)]})
    weights = [float(w) for w in rng.uniform(0.1, 1.0, PARTITION_POINTS)]
    return {"space": {"ids": ids, "weights": weights, "normalize": True},
            "partitions": partitions}


def _seeded_ising_z(rng: np.random.Generator, log: bool = False) -> dict:
    """|K| <= 1.5 and N <= 12: the closed form stays within 1e-12 of brute force."""
    return {"k0": float(rng.uniform(-1.5, 1.5)), "k1": float(rng.uniform(-1.5, 1.5)),
            "n": int(rng.integers(2, 13)), "check_bruteforce": True, "log": log}


def _seeded_start(rng: np.random.Generator) -> dict:
    """Starts with |K0| <= 1.2 and -0.4 <= K1 <= 3 converge within 60 steps."""
    return {"v0": float(np.exp(-rng.uniform(-1.2, 1.2))),
            "v1": float(np.exp(-rng.uniform(-0.4, 3.0))), "steps": 60, "tol": 1e-10}


def prepare_ising_cli(rng: np.random.Generator, workdir: Path, rounds: int = 64):
    """18 small CLI calls per round, 3 of them the named ``ising-z`` faults."""
    pool = []
    readme_rates = workdir / "rates.csv"
    readme_flow = workdir / "flow.csv"
    readme_start = {"v0": 0.7, "v1": 0.9, "steps": 60, "tol": 1e-10}

    def check_readme_ks(outcome):
        h = checks.check_block_table(read_table(readme_rates), [float(n) for n in range(1, 17)],
                                     1e-12)
        checks.check_ks_record(last_record(outcome.stdout), "bernoulli:0.5,0.5", h, 1.0, 1e-6)

    readme = [
        _op(["ks", "--system", "bernoulli:0.5,0.5", "--nmax", 16, "--out", readme_rates],
            check_readme_ks, (readme_rates,)),
        _trajectory_op(readme_start, readme_flow),
        _ising_z_op({"k0": 0.0, "k1": 0.693147, "n": 2, "check_bruteforce": True}),
    ]
    faults = [_ising_z_op(params, fault) for params, fault in ISING_FAULTS]
    for r in range(rounds):
        rdir = workdir / f"round{r}"
        rdir.mkdir(parents=True, exist_ok=True)
        ops = list(readme)
        ops += [_ising_z_op(_seeded_ising_z(rng, log=(i == 3))) for i in range(4)]
        ops += [_trajectory_op(_seeded_start(rng), workdir / f"trajectory{i}.csv")
                for i in range(2)]

        sweep = {"sweep": SWEEP_SIZE, "seed": int(rng.integers(2**31))}
        sweep_out = workdir / "sweep.csv"

        def check_sweep(outcome, sweep=sweep):
            checks.check_rg_sweep(sweep, last_record(outcome.stdout), read_table(sweep_out))
        ops.append(_op(["ising-rg", "--v0", 1, "--v1", 1, "--sweep-random", SWEEP_SIZE,
                        "--seed", sweep["seed"], "--out", sweep_out], check_sweep, (sweep_out,)))

        docs = []
        for i in range(2):
            doc = _partition_document(rng)
            path = rdir / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            docs.append((doc, path))

        # --config runs: ising-z, ising-rg and partition experiment files
        z_params = _seeded_ising_z(rng)
        z_out = workdir / "config_z.json"
        rg_params = _seeded_start(rng)
        rg_out = workdir / "config_flow.csv"
        part_out = workdir / "config_partition.json"
        configs = [
            ({"subcommand": "ising-z", "params": {k: z_params[k] for k in
                                                   ("k0", "k1", "n", "check_bruteforce")},
              "output": {"format": "delimited", "path": str(z_out)},
              "tolerances": {"tol": 1e-12}}, z_out),
            ({"subcommand": "ising-rg", "params": {k: rg_params[k] for k in
                                                    ("v0", "v1", "steps", "tol")},
              "output": {"format": "delimited", "path": str(rg_out)}}, rg_out),
            ({"subcommand": "partition", "params": {"input": str(docs[0][1]), "pairwise": True},
              "output": {"format": "structured", "path": str(part_out)}}, part_out),
        ]

        def check_config_z(outcome, z_params=z_params):
            checks.check_ising_z(z_params, _same_record_in_file(z_out, outcome))

        def check_config_rg(outcome, rg_params=rg_params):
            checks.check_rg_trajectory(rg_params, last_record(outcome.stdout),
                                       read_table(rg_out), read_footer(rg_out))

        def check_config_partition(outcome, doc=docs[0][0]):
            expect(outcome.stdout == "", "partition --out also wrote stdout")
            checks.check_partition_report(doc, json.loads(part_out.read_text()), True)

        for i, ((config, out), check) in enumerate(zip(
                configs, (check_config_z, check_config_rg, check_config_partition))):
            path = rdir / f"config{i}.json"
            path.write_text(json.dumps(config))
            ops.append(_op(["--config", path], check, (out,)))

        rows_out = workdir / "partition.csv"

        def check_pairwise(outcome, doc=docs[1][0]):
            checks.check_partition_report(doc, last_record(outcome.stdout), True)

        def check_rows(outcome, doc=docs[1][0]):
            checks.check_partition_rows(doc, read_table(rows_out))

        ops.append(_op(["partition", "--input", docs[1][1], "--pairwise"], check_pairwise))
        ops.append(_op(["partition", "--input", docs[1][1], "--format", "delimited",
                        "--out", rows_out], check_rows, (rows_out,)))
        ops += faults
        pool.append(ops)
    return pool


#: Workload name -> function that turns a seeded generator and a work
#: directory into a pool of rounds.
WORKLOADS = {
    "blockspin_cap": prepare_blockspin,
    "perm_joins": prepare_perm_joins,
    "shift_words": prepare_shift_words,
    "ising_cli": prepare_ising_cli,
}
