"""Each checker accepts the program's real output and rejects a perturbed one.

Run with ``python -m pytest bench``; the default test paths leave this
directory out.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch  # noqa: E402
from entroflow import cli  # noqa: E402


def entroflow(*argv) -> workloads.Outcome:
    _, outcome = run.call(cli, workloads.Op(tuple(str(a) for a in argv), lambda o: None))
    assert not outcome.failed, outcome
    return outcome


def write_table(path: Path, table: dict) -> dict:
    """Round-trip a perturbed table through the structured file format."""
    path.write_text(json.dumps(table))
    return checks.read_table(path)


@pytest.mark.parametrize("fmt", ["delimited", "structured"])
def test_entropy_flow_checker(tmp_path, fmt):
    params = {"k0": 0.3, "k1": -0.9, "sites": 8, "block": 2, "levels": 3}
    out = tmp_path / "flow"
    outcome = entroflow("entropy-flow", "--k0", 0.3, "--k1", -0.9, "--sites", 8,
                        "--levels", 3, "--out", out, "--format", fmt)
    record, table = checks.last_record(outcome.stdout), checks.read_table(out)
    checks.check_entropy_flow(params, record, table)

    shifted = copy.deepcopy(record)
    shifted["entropies"][1] += 1e-6
    with pytest.raises(Mismatch, match="level entropies"):
        checks.check_entropy_flow(params, shifted, table)
    wrong_atoms = {**table, "atoms": [table["atoms"][0] + 1, *table["atoms"][1:]]}
    with pytest.raises(Mismatch, match="atom counts"):
        checks.check_entropy_flow(params, record, wrong_atoms)
    other_field = {**params, "k0": -0.3 + 1e-3}
    with pytest.raises(Mismatch):
        checks.check_entropy_flow(other_field, record, table)


def test_block_spin_reference_nests():
    counts, entropies = checks.block_spin_reference(0.2, -1.1, 16, 2, 4)
    assert counts == [256, 16, 4, 2]
    assert all(b < a for a, b in zip(entropies, entropies[1:]))


def test_perm_join_checkers(tmp_path):
    labels = workloads.arc_labels(np.random.default_rng(7))
    atoms = json.dumps([np.flatnonzero(labels == k).tolist() for k in range(3)])
    system = f"cycle:{labels.size}"
    out = tmp_path / "ks.csv"
    outcome = entroflow("ks", "--system", system, "--nmax", 12, "--partition", atoms,
                        "--out", out)
    counts, expected = checks.window_entropies(labels, 12)
    assert counts == sorted(counts) and counts[-1] > counts[0]
    table = checks.read_table(out)
    h = checks.check_block_table(table, expected, checks.ENTROPY_TOL)
    checks.check_ks_record(checks.last_record(outcome.stdout), system, h,
                           expected[-1] - expected[-2], 1e-6)
    off = copy.deepcopy(table)
    off["H_n"][5] += 1e-6
    with pytest.raises(Mismatch, match="block entropies"):
        checks.check_block_table(off, expected, checks.ENTROPY_TOL)

    record = checks.last_record(entroflow("theorem-check", "--system", system, "--nmax", 12,
                                          "--partition", atoms).stdout)
    checks.check_theorem_record(record, system, expected)
    with pytest.raises(Mismatch, match="status"):
        checks.check_theorem_record(
            {**record, "verdict": {**record["verdict"], "status": "witnessed"}}, system, expected)
    with pytest.raises(Mismatch, match="h_estimate"):
        checks.check_theorem_record({**record, "h_estimate": record["h_estimate"] + 1e-6},
                                    system, expected)


def test_window_entropies_saturate_on_a_plateau():
    # one atom per point: every window is distinct from n = 1 on
    counts, entropies = checks.window_entropies(np.arange(16) % 4, 3)
    assert counts == [4, 4, 4]
    assert entropies == pytest.approx([2.0, 2.0, 2.0])


@pytest.mark.parametrize("kind", ["bernoulli", "markov"])
def test_closed_form_checker(tmp_path, kind):
    rng = np.random.default_rng(3)
    system, spec = workloads._shift_spec(rng, kind, 3, False)
    out = tmp_path / "ks.json"
    outcome = entroflow("ks", "--system", system, "--nmax", 8, "--out", out,
                        "--format", "structured")
    expected = checks.closed_form_entropies(spec, 8)
    table = checks.read_table(out)
    h = checks.check_block_table(table, expected, checks.ENTROPY_TOL)
    checks.check_ks_record(checks.last_record(outcome.stdout), system, h,
                           expected[-1] - expected[-2], 1e-6)
    off = copy.deepcopy(table)
    off["H_n"][-1] += 1e-6
    with pytest.raises(Mismatch):
        checks.check_block_table(off, expected, checks.ENTROPY_TOL)


def test_stationary_vector_solves_pi_q():
    q = np.array([[0.9, 0.1, 0.0], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    pi = checks.stationary_vector(q)
    assert pi @ q == pytest.approx(pi, abs=1e-15)
    assert pi.sum() == pytest.approx(1.0)


def test_lumped_checkers(tmp_path):
    rng = np.random.default_rng(5)
    system, spec = workloads._shift_spec(rng, "markov", 4, True)
    groups = spec["groups"]
    partition = json.dumps([[i for i in range(4) if groups[i] == g] for g in (0, 1)])
    out = tmp_path / "ks.csv"
    outcome = entroflow("ks", "--system", system, "--nmax", 12, "--partition", partition,
                        "--out", out)
    table = checks.read_table(out)
    h = checks.check_lumped_table(spec, table)
    record = checks.last_record(outcome.stdout)
    lower, upper = checks.check_lumped_rate(spec, record["h_estimate"])
    assert 0.0 < lower <= upper

    off = copy.deepcopy(table)
    off["H_n"][2] += 1e-6  # inside the enumerated range
    with pytest.raises(Mismatch, match="block entropies"):
        checks.check_lumped_table(spec, off)
    late = copy.deepcopy(table)
    late["H_n"][10] += 1e-6  # beyond it: the increments stop decreasing
    with pytest.raises(Mismatch, match="increments"):
        checks.check_lumped_table(spec, late)
    with pytest.raises(Mismatch, match="Birch"):
        checks.check_lumped_rate(spec, upper + 1e-6)
    with pytest.raises(Mismatch):
        checks.check_lumped_table(spec, {**table, "H_n": h[::-1]})


def test_lumped_enumeration_matches_the_identity_case():
    q = [[0.5, 0.5], [0.25, 0.75]]
    plain, with_first = checks.lumped_word_entropies(q, [0, 1], 5)
    assert plain == pytest.approx(checks.closed_form_entropies({"kind": "markov", "q": q}, 5))
    assert with_first == pytest.approx(plain)


def test_ising_z_checker():
    params = {"k0": 0.4, "k1": -1.2, "n": 11, "check_bruteforce": True}
    record = checks.last_record(entroflow(*workloads._ising_z_argv(params)).stdout)
    checks.check_ising_z(params, record)
    with pytest.raises(Mismatch, match="Z"):
        checks.check_ising_z(params, {**record, "z": record["z"] * (1 + 1e-8)})
    with pytest.raises(Mismatch, match="brute-force Z"):
        checks.check_ising_z(params, {**record, "bruteforce_z": record["bruteforce_z"] * 1.001})
    with pytest.raises(Mismatch, match="log Z"):
        checks.check_ising_z(params, {**record, "log_z": record["log_z"] + 1e-6})


def test_log_z_bruteforce_against_a_hand_sum():
    # N = 2 periodic: bonds count twice, Z = 2 e^{2 K1} (cosh 2 K0) + 2 e^{-2 K1}
    k0, k1 = 0.3, -0.7
    hand = 2 * np.exp(2 * k1) * np.cosh(2 * k0) + 2 * np.exp(-2 * k1)
    assert checks.log_z_bruteforce(k0, k1, 2) == pytest.approx(np.log(hand), rel=1e-14)


def test_rg_trajectory_checker(tmp_path):
    params = {"v0": 0.7, "v1": 0.9, "steps": 60, "tol": 1e-10}
    out = tmp_path / "flow.csv"
    outcome = entroflow("ising-rg", "--v0", 0.7, "--v1", 0.9, "--steps", 60, "--tol", 1e-10,
                        "--out", out)
    record, table, footer = (checks.last_record(outcome.stdout), checks.read_table(out),
                             checks.read_footer(out))
    checks.check_rg_trajectory(params, record, table, footer)
    bad_c = copy.deepcopy(table)
    bad_c["c"][1] *= 1 + 1e-6
    with pytest.raises(Mismatch, match="step 2"):
        checks.check_rg_trajectory(params, record, bad_c, footer)
    off_line = {**record, "converged_to": [record["converged_to"][0], 1.001]}
    with pytest.raises(Mismatch, match="fixed line"):
        checks.check_rg_trajectory(params, off_line, table, footer)


def test_rg_sweep_checker(tmp_path):
    params = {"sweep": 16, "seed": 11}
    out = tmp_path / "sweep.csv"
    outcome = entroflow("ising-rg", "--v0", 1, "--v1", 1, "--sweep-random", 16, "--seed", 11,
                        "--out", out)
    record, table = checks.last_record(outcome.stdout), checks.read_table(out)
    checks.check_rg_sweep(params, record, table)
    with pytest.raises(Mismatch, match="row maximum"):
        checks.check_rg_sweep(params, {**record, "max_delta_v0": 1e-12}, table)
    with pytest.raises(Mismatch, match="row count"):
        checks.check_rg_sweep({**params, "sweep": 17}, {**record, "sweep": 17}, table)


def test_partition_checkers(tmp_path):
    doc = workloads._partition_document(np.random.default_rng(9))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    report = checks.last_record(entroflow("partition", "--input", path, "--pairwise").stdout)
    checks.check_partition_report(doc, report, True)
    wrong = copy.deepcopy(report)
    wrong["partitions"][0]["atom_count"] += 1
    with pytest.raises(Mismatch, match="atom count"):
        checks.check_partition_report(doc, wrong, True)
    wrong = copy.deepcopy(report)
    wrong["pairwise"][1]["join_entropy_bits"] += 1e-6
    with pytest.raises(Mismatch, match="join entropy"):
        checks.check_partition_report(doc, wrong, True)
    wrong = copy.deepcopy(report)
    wrong["partitions"][2]["entropy_bits"] -= 1e-6
    with pytest.raises(Mismatch, match="entropy"):
        checks.check_partition_report(doc, wrong, True)

    rows = tmp_path / "rows.csv"
    entroflow("partition", "--input", path, "--format", "delimited", "--out", rows)
    table = checks.read_table(rows)
    checks.check_partition_rows(doc, table)
    table["entropy_bits"][0] += 1e-6
    with pytest.raises(Mismatch, match="row entropies"):
        checks.check_partition_rows(doc, table)


def test_plateau_verdict():
    assert checks.plateau_verdict([1, 2, 3, 3, 3], 1e-9, 2) == ("witnessed", 2, 0.0)
    assert checks.plateau_verdict([1, 2, 3, 4], 1e-9, 2)[:2] == ("refuted", None)
    assert checks.plateau_verdict([1, 2, 2.5, 2], 1e-9, 2)[:2] == ("inconclusive", None)


def test_fault_operations_fail_or_check():
    """Each named fault case fails today; once fixed, its output must check."""
    for params, fault in workloads.ISING_FAULTS:
        op = workloads._ising_z_op(params, fault)
        _, outcome = run.call(cli, op)
        if not outcome.failed:
            op.check(outcome)


def test_unnamed_failure_is_incorrect():
    tally = run.Tally()
    crash = workloads.Outcome(None, "", "", RuntimeError("boom"))
    tally.record(workloads.Op(("ising-z",), lambda o: None, fault="named"), crash)
    assert tally.correct and tally.failed == 1
    tally.record(workloads.Op(("ising-z",), lambda o: None), workloads.Outcome(2, "", "bad"))
    assert not tally.correct and tally.failed == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_whole_rounds(capsys, trace):
    assert run.main(["--workload", "ising_cli", "--seed", "4", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    rounds, rest = divmod(result["attempted"], 18)
    assert rounds >= 1 and rest == 0
    # correct means every failure was a named fault case; fixing one lowers the count
    assert result["failed"] % rounds == 0 and result["failed"] <= 3 * rounds
    expected = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in expected["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
