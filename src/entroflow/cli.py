"""Command line front end.

Subcommands:
    partition      entropies and pairwise structure of partitions from a file
    ks             block entropies and rate estimate for a shift or permutation
    ising-rg       forward decimation trajectory in the V frame
    ising-z        partition function of the periodic chain, with oracle check
    entropy-flow   block-spin entropy profile of an Ising configuration space
    theorem-check  plateau verdict against the rate estimate for a join flow

Exit codes: 0 success, 2 validation failure, 3 resource cap exceeded,
4 internal inconsistency (independent routes disagree beyond tolerance).

The argparse parser is the one description of the flags. It is built
once per process, and experiment config files are checked against its
actions: the flag names, the required flags and which subcommands take
``--format``. A line that starts with a subcommand is parsed by that
subcommand's parser alone, so each argument is scanned once; any other
line goes through the full parser.

Every subcommand hands its record, and its table where it has one, to
one writer. stdout gets the record; ``--out`` gets the table, delimited
or as structured columns, or the record when there is no table.
``partition`` writes its report to ``--out`` or, without it, to stdout.

Outputs are deterministic: identical invocations produce byte-identical
files and stdout. Files are written atomically: the text goes to a sibling
``<name>.<pid>-<k>.tmp``, created exclusively with the first ``k`` not
taken, which is then renamed over the target. The file's mode follows
the umask, as for any newly created file.
Delimited output uses comma-separated columns with shortest round-trip
float formatting; structured records are emitted with stable key order
and re-parse to equal values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import dynamics, flows, ising, lattice
from .errors import (
    ConfigError,
    EntroflowError,
    InconsistencyError,
    ResourceCapError,
    ValidationError,
)
from .partitions import (
    Partition,
    atom_probabilities,
    entropy,
    is_coarsening,
    join,
    make_space,
    pseudo_distance,
)

__all__ = ["ExperimentConfig", "main", "run", "validate_config"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_INCONSISTENT = 4

# Flags a config file sets through its "output" section, not "params".
_OUTPUT_FLAGS = ("out", "format")

#: Most starts one ``ising-rg --sweep-random`` run draws.
SWEEP_CAP = 1 << 16

# The values of every --format flag and of a config's output format.
_FORMATS = ("delimited", "structured")


def _float_repr(x: float) -> str:
    """Shortest representation that round-trips the exact double."""
    return repr(float(x))


def _json(value) -> str:
    """Sorted-key JSON; numpy arrays and scalars are written as Python values.

    ``numpy.float64`` is a ``float``, which json writes with ``float.__repr__``.
    """
    return json.dumps(value, sort_keys=True, default=lambda v: v.tolist())


def emit_record(record: dict) -> str:
    """Serialize a structured record with stable key order and print it."""
    text = _json(record)
    print(text)
    return text


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file through a temp sibling and an atomic rename.

    The sibling is ``<name>.<pid>-<k>.tmp``, created exclusively with the
    first ``k`` not taken, so the file gets the mode the umask allows.
    Missing parent directories are created only when that create finds
    no directory to write in. A path that cannot be written raises
    :class:`ValidationError` naming it, and no temp file is left behind.
    """
    target = Path(path)
    tmp_name = None
    try:
        try:
            tmp_name, fd = _create_sibling(target)
        except (FileNotFoundError, NotADirectoryError):
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp_name, fd = _create_sibling(target)
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
        tmp_name = None
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    finally:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)


def _create_sibling(target: Path) -> tuple[str, int]:
    """Name and write descriptor of the first ``<target>.<pid>-<k>.tmp`` not taken."""
    for k in itertools.count():
        name = f"{target}.{os.getpid()}-{k}.tmp"
        with contextlib.suppress(FileExistsError):
            return name, os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)


class _Table(NamedTuple):
    """Rows for ``--out``; structured output names its columns ``columns``."""

    header: tuple[str, ...]
    rows: list[tuple]
    footer: tuple[str, ...] = ()
    columns: tuple[str, ...] | None = None  # defaults to the header


class _Output(NamedTuple):
    """What a subcommand produced, for :func:`_write`."""

    record: dict | None
    table: _Table | None = None
    # False for partition, whose --out text replaces stdout.
    stdout_record: bool = True
    # Set when independent routes disagreed; raised after the output is written.
    inconsistency: str | None = None


def _write(args, output: _Output) -> None:
    """Send one subcommand's output to ``--out`` and stdout.

    stdout gets the record. ``--out`` gets the table, as delimited rows
    or, with ``--format structured``, as one object of columns; without
    a table it gets the record. When ``stdout_record`` is off, the
    ``--out`` text goes to stdout if there is no ``--out``.
    """
    table = output.table
    if table is None:
        text = _json(output.record) + "\n"
    elif getattr(args, "format", "delimited") == "structured":
        names = table.columns or table.header
        text = _json(
            {name: [row[i] for row in table.rows] for i, name in enumerate(names)}
        ) + "\n"
    else:
        lines = [",".join(table.header)]
        for row in table.rows:
            lines.append(
                ",".join(
                    _float_repr(cell) if isinstance(cell, float) else str(cell)
                    for cell in row
                )
            )
        text = "\n".join([*lines, *table.footer]) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    if output.stdout_record:
        emit_record(output.record)
    elif not args.out:
        sys.stdout.write(text)


def _is_tolerance(value: float) -> bool:
    """The one rule for a tolerance: finite and positive (NaN fails)."""
    return 0.0 < value < math.inf


def _tolerance(text: str) -> float:
    """argparse type of ``--tol`` and ``--epsilon``: a float meeting the rule."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not _is_tolerance(value):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with one-line diagnostics instead of usage dumps."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: it reads -1e-05 as an option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )

    def error(self, message: str):
        raise ValidationError(message)


@functools.cache
def _parser() -> _Parser:
    """The CLI's flags, built once per process."""
    parser = _Parser(prog="entroflow", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        help="run from an experiment config file instead of flags",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser(
        "partition",
        help="entropies and pairwise structure of partitions from a file",
    )
    p.add_argument("--input", required=True, help="partition document (JSON)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=_FORMATS, default="structured")
    p.add_argument(
        "--pairwise",
        action="store_true",
        help="include coarsening, join, and pseudo-distance for every pair",
    )

    p = sub.add_parser("ks", help="block entropies and rate estimate")
    p.add_argument("--system", required=True, help="bernoulli:..., markov:..., cycle:N")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--partition", help="atoms as a JSON list of index lists")
    p.add_argument("--cap", type=int, default=dynamics.DEFAULT_WORD_CAP)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--out", help="write rows (n, H_n, H_n/n) here")
    p.add_argument("--format", choices=_FORMATS, default="delimited")

    p = sub.add_parser("ising-rg", help="forward decimation trajectory")
    p.add_argument("--v0", type=float, help="start, required for a trajectory")
    p.add_argument("--v1", type=float, help="start, required for a trajectory")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--out", help="write rows (step, V0, V1, c) here")
    p.add_argument(
        "--sweep-random",
        type=int,
        metavar="N",
        help="cross-check the closed form against the oracle on N random starts "
        f"(N <= {SWEEP_CAP})",
    )
    p.add_argument("--seed", type=int, help="seed, mandatory with --sweep-random")

    p = sub.add_parser("ising-z", help="partition function of the periodic chain")
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log", action="store_true", help="report log Z only")
    p.add_argument(
        "--check-bruteforce",
        action="store_true",
        help="compare against full enumeration (N <= 20)",
    )
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="oracle agreement bound")
    p.add_argument("--out", help="also write the record here")

    p = sub.add_parser("entropy-flow", help="block-spin entropy profile")
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--block", type=int, default=2)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--out", help="write rows (level, atoms, H_bits) here")
    p.add_argument("--format", choices=_FORMATS, default="delimited")

    p = sub.add_parser("theorem-check", help="plateau verdict vs rate estimate")
    p.add_argument("--system", required=True, help="bernoulli:..., markov:..., cycle:N")
    p.add_argument("--partition", help="atoms as a JSON list of index lists")
    p.add_argument("--epsilon", type=_tolerance, default=flows.DEFAULT_EPSILON)
    p.add_argument("--window", type=int, help="plateau window, default 8 clipped")
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--cap", type=int, default=dynamics.DEFAULT_WORD_CAP)
    p.add_argument("--out", help="also write the record here")
    return parser


@functools.cache
def _subparser(subcommand: str) -> _Parser:
    """A subcommand's own parser, read from the one :func:`_parser` built."""
    (choices,) = (
        action.choices
        for action in _parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return choices[subcommand]


@functools.cache
def _flags(subcommand: str) -> dict[str, argparse.Action]:
    """A subcommand's flags by destination name, read from the parser."""
    return {a.dest: a for a in _subparser(subcommand)._actions if a.dest != "help"}


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """The command line as a namespace, each argument scanned once.

    The full parser hands everything after a leading subcommand to that
    subcommand's parser untouched, so such a line goes to the subcommand's
    parser alone. Any other line (empty, ``--config``, ``-h``, ``--`` or
    an unknown word) goes through the full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        namespace = argparse.Namespace(config=None, subcommand=argv[0])
        return _subparser(argv[0]).parse_args(argv[1:], namespace)
    return _parser().parse_args(argv)


# ---------------------------------------------------------------------------
# subcommand bodies


def _load_partition_document(path: str):
    """Read ``{"space": {"ids": [...], "weights": [...], "normalize": bool},
    "partitions": [{"name": ..., "atoms": [[id, ...], ...]}, ...]}``.

    An entry of the wrong JSON type is a :class:`ValidationError`. A
    boolean is never a point id, and an atom entry names a point only
    when it equals an id of the same JSON type (``2.0`` is not id ``2``).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict) or "space" not in doc:
        raise ValidationError(f"{path}: expected an object with a 'space' entry")
    spec = doc["space"]
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: 'space' must be an object")
    ids, weights = spec.get("ids", []), spec.get("weights", [])
    normalize = spec.get("normalize", False)
    if not isinstance(ids, list) or not isinstance(weights, list):
        raise ValidationError(f"{path}: 'ids' and 'weights' must be lists")
    for i, weight in enumerate(weights):
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValidationError(f"{path}: weight {i} is not a number: {weight!r}")
    for i, pid in enumerate(ids):
        if isinstance(pid, bool):
            raise ValidationError(f"{path}: point id {i} is a boolean: {pid!r}")
    if not isinstance(normalize, bool):
        raise ValidationError(f"{path}: 'normalize' must be true or false")
    space = make_space(ids, weights, normalize=normalize)

    def index_of(pid) -> int:
        index = space.index_of(pid)
        if type(space.point_ids[index]) is not type(pid):
            raise ValidationError(f"unknown point id {pid!r}")
        return index

    entries = doc.get("partitions", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"{path}: 'partitions' must be a list of objects")
    partitions = []
    for i, entry in enumerate(entries):
        name = str(entry.get("name", f"P{i}"))
        if "atoms" not in entry:
            raise ValidationError(f"partition {name!r} has no atoms")
        atoms = entry["atoms"]
        if not isinstance(atoms, list) or not all(isinstance(a, list) for a in atoms):
            raise ValidationError(f"partition {name!r}: 'atoms' must be a list of lists")
        indices = [[index_of(pid) for pid in atom] for atom in atoms]
        partitions.append((name, Partition(space, indices)))
    if not partitions:
        raise ValidationError(f"{path}: no partitions given")
    return space, partitions


def _cmd_partition(args) -> _Output:
    space, named = _load_partition_document(args.input)
    if args.format == "delimited":
        rows = [(name, p.n_atoms, entropy(p)) for name, p in named]
        table = _Table(("name", "atom_count", "entropy_bits"), rows)
        return _Output(None, table, stdout_record=False)
    report = {
        "space": {"ids": list(space.point_ids), "weights": list(space.weights)},
        "partitions": [
            {
                "name": name,
                "atom_count": p.n_atoms,
                "atom_probabilities": list(atom_probabilities(p)),
                "entropy_bits": entropy(p),
            }
            for name, p in named
        ],
    }
    if args.pairwise:
        pairs = []
        for (left_name, left), (right_name, right) in itertools.combinations(named, 2):
            joined = join(left, right)
            pairs.append(
                {
                    "left": left_name,
                    "right": right_name,
                    "left_coarsens_right": is_coarsening(left, right),
                    "right_coarsens_left": is_coarsening(right, left),
                    "pseudo_distance_bits": pseudo_distance(left, right),
                    "join_atom_count": joined.n_atoms,
                    "join_entropy_bits": entropy(joined),
                }
            )
        report["pairwise"] = pairs
    return _Output(report, stdout_record=False)


def _partition_arg(system, raw: str | None) -> Partition | None:
    """The ``--partition`` atoms, or the default partition of the system.

    The default is the generating partition (``None``) for shifts and a
    half split of the points for permutations.
    """
    symbolic = isinstance(system, dynamics.SymbolicSystem)
    if raw is None:
        if symbolic:
            return None
        n = system.space.size
        return Partition._from_labels(system.space, np.arange(n) >= n // 2)
    try:
        groups = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad --partition JSON: {exc.msg}") from None
    return Partition(system.symbol_space if symbolic else system.space, groups)


def _cmd_ks(args) -> _Output:
    system = dynamics.parse_system_spec(args.system)
    report = dynamics.info_rate_report(
        system,
        _partition_arg(system, args.partition),
        args.nmax,
        tol=args.tol,
        cap=args.cap,
    )
    rows = [
        (n + 1, report.block_entropies[n], report.rates[n])
        for n in range(report.n_max)
    ]
    record = {
        "system": args.system,
        "n_max": report.n_max,
        "h_estimate": report.h_estimate,
        "converged": report.converged,
    }
    return _Output(
        record, _Table(("n", "H_n", "H_n/n"), rows, columns=("n", "H_n", "rate"))
    )


def _cmd_ising_rg(args) -> _Output:
    if args.sweep_random is not None:
        return _cmd_ising_rg_sweep(args)
    missing = [f"--{name}" for name in ("v0", "v1") if getattr(args, name) is None]
    if missing:
        # argparse's words, now that only a trajectory needs the start
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    start = ising.VVector(args.v0, args.v1)
    trajectory = ising.rg_trajectory(start, max_steps=args.steps, tol=args.tol)
    rows = [
        (step + 1, v.v0, v.v1, c)
        for step, (v, c) in enumerate(trajectory.steps)
    ]
    converged = trajectory.converged_to
    footer_value = (
        "none"
        if converged is None
        else f"{_float_repr(converged.v0)},{_float_repr(converged.v1)}"
    )
    record = {
        "start": [start.v0, start.v1],
        "steps_used": trajectory.steps_used,
        "converged_to": None if converged is None else [converged.v0, converged.v1],
        "diverged": trajectory.diverged,
    }
    return _Output(
        record,
        _Table(("step", "V0", "V1", "c"), rows, (f"# converged_to={footer_value}",)),
    )


def _cmd_ising_rg_sweep(args) -> _Output:
    count = args.sweep_random
    if args.seed is None:
        raise ValidationError("--seed is mandatory with --sweep-random")
    if count < 1:
        raise ValidationError(f"--sweep-random must be positive, got {count}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    if count > SWEEP_CAP:
        raise ResourceCapError(
            f"--sweep-random {count} exceeds the cap of {SWEEP_CAP} starts"
        )
    # one draw of 2N doubles is the same stream as 2N scalar draws
    draws = (1.0 - np.random.default_rng(args.seed).uniform(size=2 * count)).tolist()
    starts = [ising.VVector(v0, v1) for v0, v1 in zip(draws[::2], draws[1::2])]
    closed = [ising.rg_step_closed(v) for v in starts]
    # starts lie in (0, 1], where neither the closed form nor the coupling
    # cap refuses, so the oracle's first refusal is the sweep's first failure
    oracle = ising._rg_step_oracle_stack([v.couplings for v in starts])
    worst = {"v0": 0.0, "v1": 0.0, "c": 0.0}
    rows = []
    for i, (v, (closed_v, closed_c), (oracle_k, oracle_c)) in enumerate(
        zip(starts, closed, oracle)
    ):
        oracle_v = oracle_k.v
        dv0 = abs(closed_v.v0 - oracle_v.v0)
        dv1 = abs(closed_v.v1 - oracle_v.v1)
        dc = abs(closed_c - oracle_c)
        worst["v0"] = max(worst["v0"], dv0)
        worst["v1"] = max(worst["v1"], dv1)
        worst["c"] = max(worst["c"], dc / max(1.0, abs(oracle_c)))
        rows.append((i, v.v0, v.v1, dv0, dv1, dc))
    tol = 1e-9
    record = {
        "sweep": count,
        "seed": args.seed,
        "max_delta_v0": worst["v0"],
        "max_delta_v1": worst["v1"],
        "max_rel_delta_c": worst["c"],
        "tolerance": tol,
    }
    inconsistency = None
    if max(worst["v0"], worst["v1"], worst["c"]) > tol:
        inconsistency = (
            "closed-form decimation and the matrix-squaring oracle disagree "
            f"beyond {tol}"
        )
    table = _Table(("i", "v0", "v1", "delta_v0", "delta_v1", "delta_c"), rows)
    return _Output(record, table, inconsistency=inconsistency)


def _cmd_ising_z(args) -> _Output:
    k = ising.CouplingVector(args.k0, args.k1)
    record: dict[str, object] = {"k0": k.k0, "k1": k.k1, "n": args.n}
    record["log_z"] = ising.log_partition_function(k, args.n)
    if not args.log:
        record["z"] = ising.partition_function(k, args.n)
    inconsistency = None
    if args.check_bruteforce:
        brute = ising.log_partition_function_bruteforce(k, args.n)
        record["bruteforce_log_z"] = brute
        if brute <= ising.MAX_LOG_Z:
            record["bruteforce_z"] = math.exp(brute)
        # the relative gap in Z, taken in the log domain
        delta = abs(math.expm1(record["log_z"] - brute))
        record["bruteforce_delta"] = delta
        if delta > args.tol:
            inconsistency = f"closed-form Z disagrees with brute force beyond {args.tol}"
    return _Output(record, inconsistency=inconsistency)


#: Bound on the relative gap between the class-weight and transfer-matrix log Z.
_LOG_Z_GAP_TOL = 1e-12


def _cmd_entropy_flow(args) -> _Output:
    result = lattice.rg_entropy_flow(
        (args.k0, args.k1),
        args.sites,
        block_size=args.block,
        levels=args.levels,
    )
    log_z = result.log_normalization
    closed = ising.log_partition_function(result.coupling, result.n_sites)
    gap = abs(log_z - closed) / max(1.0, abs(log_z))
    rows = [
        (level, result.atom_counts[level], result.entropies[level])
        for level in range(result.levels)
    ]
    record = {
        "k0": result.coupling.k0,
        "k1": result.coupling.k1,
        "sites": result.n_sites,
        "levels": result.levels,
        "entropies": list(result.entropies),
        "coarse_verdict": result.coarse_verdict.to_record(),
        "refinement_verdict": result.refinement_verdict.to_record(),
        "log_z_gap": gap,
    }
    inconsistency = None
    if gap > _LOG_Z_GAP_TOL:
        inconsistency = (
            f"class-weight log Z disagrees with the transfer matrix beyond {_LOG_Z_GAP_TOL}"
        )
    table = _Table(("level", "atoms", "H_bits"), rows)
    return _Output(record, table, inconsistency=inconsistency)


def _cmd_theorem_check(args) -> _Output:
    system = dynamics.parse_system_spec(args.system)
    result = dynamics.theorem_limit_point_check(
        system,
        _partition_arg(system, args.partition),
        epsilon=args.epsilon,
        window=args.window,
        n_max=args.nmax,
        cap=args.cap,
    )
    record = {
        "system": args.system,
        "verdict": result.verdict.to_record(),
        "h_estimate": result.h_estimate,
        "consistent": result.consistent,
    }
    inconsistency = None
    if not result.consistent:
        inconsistency = "witnessed limit point with a nonzero rate estimate"
    return _Output(record, inconsistency=inconsistency)


# ---------------------------------------------------------------------------
# experiment config files


@dataclass
class ExperimentConfig:
    """A validated experiment description loaded from a config file."""

    subcommand: str
    params: dict[str, object] = field(default_factory=dict)
    output_format: str | None = None
    output_path: str | None = None
    tolerances: dict[str, float] = field(default_factory=dict)


def _edit_distance(a: str, b: str) -> int:
    if abs(len(a) - len(b)) > 2:
        return 3  # anything above the suggestion threshold
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def _suggest(key: str, known: Sequence[str]) -> str:
    near = sorted(k for k in known if _edit_distance(key, k) == 1)
    if near:
        return f" (did you mean {near[0]!r}?)"
    return ""


def validate_config(path: str | Path) -> ExperimentConfig:
    """Validate an experiment config file, reporting every violation.

    The file is a JSON object with keys ``subcommand`` (one of the CLI
    subcommands), ``params`` (flag values for it, underscores for
    hyphens), optional ``output`` ({"format", "path"}) and optional
    ``tolerances`` (finite, positive numbers). The only tolerance is
    ``tol``, and only for subcommands with a ``--tol`` flag (``ks``,
    ``ising-rg``, ``ising-z``); a ``tol`` under ``params`` takes
    precedence. All violations are collected into one
    :class:`ConfigError` instead of stopping at the first.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    violations: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config must be an object"])

    known_top = ("subcommand", "params", "output", "tolerances")
    for key in doc:
        if key not in known_top:
            violations.append(f"unknown key {key!r}{_suggest(key, known_top)}")

    subcommand = doc.get("subcommand")
    params: dict[str, object] = {}
    flags: dict[str, argparse.Action] = {}
    if subcommand is None:
        violations.append("missing required key 'subcommand'")
    elif subcommand not in SUBCOMMANDS:
        violations.append(
            f"unknown subcommand {subcommand!r}{_suggest(str(subcommand), SUBCOMMANDS)}"
        )
    else:
        flags = _flags(subcommand)
    allowed = sorted(set(flags).difference(_OUTPUT_FLAGS))
    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        violations.append("params must be an object")
        raw_params = {}
    if flags:
        for key, value in raw_params.items():
            if key not in allowed:
                violations.append(
                    f"unknown key {key!r} for {subcommand}{_suggest(key, allowed)}"
                )
            else:
                params[key] = value
        for key in sorted(dest for dest, action in flags.items() if action.required):
            if key not in raw_params:
                violations.append(f"missing required key {key!r} for {subcommand}")

    output_format = None
    output_path = None
    output = doc.get("output", {})
    if not isinstance(output, dict):
        violations.append("output must be an object")
    else:
        for key in output:
            if key not in ("format", "path"):
                violations.append(
                    f"unknown key {key!r} in output{_suggest(key, ('format', 'path'))}"
                )
        output_format = output.get("format")
        if "format" in output and output_format not in _FORMATS:
            violations.append(
                f"output format must be {_FORMATS[0]!r} or {_FORMATS[1]!r}, "
                f"got {output_format!r}"
            )
        output_path = output.get("path")
        if output_path is not None and not isinstance(output_path, str):
            violations.append("output path must be a string")

    tolerances: dict[str, float] = {}
    raw_tol = doc.get("tolerances", {})
    if not isinstance(raw_tol, dict):
        violations.append("tolerances must be an object")
    else:
        accepted = ("tol",) if "tol" in flags else ()
        for key, value in raw_tol.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                violations.append(f"tolerance {key!r} must be a number")
            elif not _is_tolerance(value):
                violations.append(f"tolerance {key!r} must be positive")
            elif flags and key not in accepted:
                if key in allowed:
                    hint = " (set it under params)"
                else:
                    hint = _suggest(key, accepted)
                violations.append(f"tolerance {key!r} does not apply to {subcommand}{hint}")
            else:
                tolerances[key] = value

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(
        subcommand=str(subcommand),
        params=params,
        output_format=output_format,
        output_path=output_path,
        tolerances=tolerances,
    )


def _argv_from_config(config: ExperimentConfig) -> list[str]:
    """The config as flags, joined to values by ``=`` so no value reads as a flag."""
    argv = [config.subcommand]
    values = {**config.tolerances, **config.params}
    if config.output_path is not None:
        values["out"] = config.output_path
    if config.output_format is not None and "format" in _flags(config.subcommand):
        values["format"] = config.output_format
    for key in sorted(values):
        value = values[key]
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.append(f"{flag}={value}")
    return argv


_COMMANDS = {
    "partition": _cmd_partition,
    "ks": _cmd_ks,
    "ising-rg": _cmd_ising_rg,
    "ising-z": _cmd_ising_z,
    "entropy-flow": _cmd_entropy_flow,
    "theorem-check": _cmd_theorem_check,
}

SUBCOMMANDS = tuple(_COMMANDS)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors onto exit codes."""
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
        if args.config is not None:
            return run(_argv_from_config(validate_config(args.config)))
        if args.subcommand is None:
            raise ValidationError(
                f"a subcommand is required: one of {', '.join(SUBCOMMANDS)}"
            )
        output = _COMMANDS[args.subcommand](args)
        _write(args, output)
        if output.inconsistency is not None:
            raise InconsistencyError(output.inconsistency)
        return EXIT_OK
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValidationError, EntroflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
