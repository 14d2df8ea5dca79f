import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import ConfigError, cli, dynamics
from entroflow.cli import (
    atomic_write_text,
    emit_record,
    run,
    validate_config,
)

LN2 = math.log(2.0)

SAMPLE_DOC = {
    "space": {"ids": ["a", "b", "c", "d"], "weights": [0.25, 0.25, 0.25, 0.25]},
    "partitions": [
        {"name": "halves", "atoms": [["a", "b"], ["c", "d"]]},
        {"name": "points", "atoms": [["a"], ["b"], ["c"], ["d"]]},
    ],
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocumentedInvocations:
    def test_ks_fair_coin(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = run(
            ["ks", "--system", "bernoulli:0.5,0.5", "--nmax", "16", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,H_n,H_n/n"
        assert lines[1] == "1,1.0,1.0"
        assert len(lines) == 17
        record = json.loads(capsys.readouterr().out)
        assert record["h_estimate"] == 1.0
        assert record["converged"] is True
        assert record["n_max"] == 16

    def test_ising_rg_trajectory(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        code = run(
            [
                "ising-rg",
                "--v0", "0.7",
                "--v1", "0.9",
                "--steps", "60",
                "--tol", "1e-10",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,V0,V1,c"
        assert lines[-1].startswith("# converged_to=")
        assert lines[-1] != "# converged_to=none"
        record = json.loads(capsys.readouterr().out)
        assert record["steps_used"] == 4
        assert abs(record["converged_to"][1] - 1.0) < 1e-8
        assert record["diverged"] is False
        # one data row per step between header and footer
        assert len(lines) == record["steps_used"] + 2

    def test_ising_z_with_bruteforce_check(self, capsys):
        code = run(
            ["ising-z", "--k0", "0", "--k1", "0.693147", "--n", "2",
             "--check-bruteforce"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["z"] == pytest.approx(8.5, abs=1e-3)
        assert record["bruteforce_delta"] <= 1e-12

    def test_exact_zero_field_value(self, capsys):
        code = run(["ising-z", "--k0", "0", "--k1", str(LN2), "--n", "2"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["z"] - 8.5) < 1e-12
        assert record["log_z"] == pytest.approx(math.log(8.5), rel=1e-15)


class TestDeterminism:
    def invoke(self, argv, tmp_path, capsys, filename):
        out = tmp_path / filename
        code = run(argv + ["--out", str(out)])
        assert code == 0
        return capsys.readouterr().out, out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ks", "--system", "bernoulli:0.5,0.5", "--nmax", "12"],
            ["ks", "--system", "markov:[[0.9,0.1],[0.5,0.5]]", "--nmax", "10"],
            ["ising-rg", "--v0", "0.7", "--v1", "0.9", "--steps", "60"],
            ["entropy-flow", "--k0", "0.2", "--k1", "0.4", "--sites", "8",
             "--levels", "3"],
        ],
    )
    def test_byte_identical_reruns(self, argv, tmp_path, capsys):
        first = self.invoke(argv, tmp_path, capsys, "a.txt")
        second = self.invoke(argv, tmp_path, capsys, "b.txt")
        assert first == second

    def test_sweep_reproducible_with_seed(self, capsys):
        argv = ["ising-rg", "--v0", "1", "--v1", "1", "--sweep-random", "25",
                "--seed", "99"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        record = json.loads(first)
        assert record["max_delta_v0"] <= 1e-9
        assert record["max_delta_v1"] <= 1e-9
        assert record["max_rel_delta_c"] <= 1e-9

    def test_delimited_floats_roundtrip_exactly(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        run(["ising-rg", "--v0", "0.7", "--v1", "0.9", "--out", str(out)])
        capsys.readouterr()
        from entroflow import VVector, rg_trajectory

        expected = rg_trajectory(VVector(0.7, 0.9), max_steps=100, tol=1e-10)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        for row, (v, c) in zip(rows, expected.steps):
            assert float(row[1]) == v.v0
            assert float(row[2]) == v.v1
            assert float(row[3]) == c

    def test_structured_output_reparses(self, tmp_path, capsys):
        out = tmp_path / "rates.json"
        code = run(
            ["ks", "--system", "bernoulli:0.25,0.75", "--nmax", "8",
             "--out", str(out), "--format", "structured"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["n"] == list(range(1, 9))
        assert json.dumps(payload, sort_keys=True) + "\n" == out.read_text()


class TestExitCodes:
    def test_help_screens(self, capsys):
        assert run(["--help"]) == 0
        for name in cli.SUBCOMMANDS:
            assert run([name, "--help"]) == 0
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        assert "subcommand is required" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["ising-z", "--k0", "0", "--k1", "0", "--n", "2", "--frob"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["ks"]) == 2
        assert "--system" in capsys.readouterr().err

    def test_bad_system_spec(self, capsys):
        assert run(["ks", "--system", "poisson:3"]) == 2
        capsys.readouterr()

    def test_sweep_without_seed(self, capsys):
        code = run(["ising-rg", "--v0", "1", "--v1", "1", "--sweep-random", "5"])
        assert code == 2
        assert "--seed is mandatory" in capsys.readouterr().err

    def test_resource_cap_exit(self, capsys):
        code = run(["entropy-flow", "--k0", "0", "--k1", "0", "--sites", "32"])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_word_cap_exit(self, capsys):
        code = run(
            ["ks", "--system", "bernoulli:0.5,0.5", "--nmax", "16",
             "--cap", "1024"]
        )
        assert code == 3
        capsys.readouterr()

    def test_bruteforce_disagreement_exit(self, capsys):
        # rounding noise at this point sits near 2e-15, far above 1e-18
        code = run(
            ["ising-z", "--k0", "0.3", "--k1", "0.7", "--n", "10",
             "--check-bruteforce", "--tol", "1e-18"]
        )
        assert code == 4
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["bruteforce_delta"] > 1e-18
        assert "disagrees" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k1", "-300", "--n", "3"],
            ["--k1", "-8", "--n", "3", "--check-bruteforce"],
            ["--k1", "-20", "--n", "3", "--check-bruteforce"],
        ],
    )
    def test_frustrated_rings_inside_the_cap(self, capsys, extra):
        assert run(["ising-z", "--k0", "0", *extra]) == 0
        record = json.loads(capsys.readouterr().out)
        assert math.isfinite(record["log_z"])
        assert record.get("bruteforce_delta", 0.0) < 1e-12

    @pytest.mark.parametrize("fmt", ["structured", "delimited"])
    def test_ising_rg_has_no_format_flag(self, capsys, fmt):
        code = run(["ising-rg", "--v0", "0.7", "--v1", "0.9", "--format", fmt])
        assert code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize("k1, sites", [(45.0, 16), (300.0, 4), (-300.0, 4)])
    def test_entropy_flow_inside_the_coupling_cap(self, capsys, k1, sites):
        # the unshifted Gibbs weights overflow a double at these couplings
        assert run(["entropy-flow", "--k0", "0", "--k1", str(k1),
                    "--sites", str(sites)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["entropies"] == [1.0]
        assert captured.err == ""

    def test_reducible_markov_chain_is_rejected(self, capsys):
        assert run(["ks", "--system", "markov:[[1,0],[0,1]]", "--nmax", "4"]) == 2
        assert "stationary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ising-z", "--k0", "0", "--k1", "1", "--n", "3"],
            ["entropy-flow", "--k0", "0.3", "--k1", "-0.7", "--sites", "8",
             "--levels", "2"],
            ["ks", "--system", "bernoulli:0.5,0.5", "--nmax", "4"],
        ],
    )
    def test_unwritable_out(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "dir").mkdir()
        for target in (blocker / "x", tmp_path / "dir"):
            assert run([*argv, "--out", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {target}: ")
            assert captured.err.count("\n") == 1
        # no temp sibling is left behind
        assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
        assert os.listdir(tmp_path / "dir") == []

    @pytest.mark.parametrize(
        "spec, entry",
        [
            ('markov:[["a",1],[1,0]]', "transition entry [0][0] is not a number: 'a'"),
            ("markov:[[0.5,null],[1,0]]", "transition entry [0][1] is not a number"),
            ("markov:[[0.5,[0.5]],[1,0]]", "transition entry [0][1] is not a number"),
            ("markov:[[0.5,0.5],[1]]", "unequal lengths [2, 1]"),
            ('markov:[["0.9","0.1"],[true,false]]',
             "transition entry [0][0] is not a number: '0.9'"),
            ("markov:[[0.9,0.1],[true,false]]",
             "transition entry [1][0] is not a number: True"),
        ],
    )
    def test_non_numeric_system_spec(self, capsys, spec, entry):
        assert run(["ks", "--system", spec, "--nmax", "4"]) == 2
        assert entry in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["ks", "theorem-check"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--partition", '[[0,1],[2,"x"]]'], "point index 'x' is not an integer"),
            (["--partition", "5"], "atoms must be a sequence of index lists, got 5"),
            (["--partition", "[[0],[1,null]]"], "point index None is not an integer"),
            (["--partition", "[[0,1],[2,3.5]]"], "point index 3.5 is not an integer"),
            (["--partition", '[["0",true],[2,"3"]]'],
             "point index '0' is not an integer"),
            (["--partition", "[[0,true],[2,3]]"], "point index True is not an integer"),
        ],
    )
    def test_partition_indices_must_be_integers(self, capsys, subcommand, extra, message):
        assert run([subcommand, "--system", "cycle:4", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("subcommand", ["ks", "theorem-check"])
    @pytest.mark.parametrize(
        "spec", ["markov:[[NaN,1],[1,0]]", "markov:[[Infinity,0],[0,1]]",
                 "markov:[[0.5,0.5],[-Infinity,1]]"],
    )
    def test_non_finite_markov_spec(self, capsys, subcommand, spec):
        assert run([subcommand, "--system", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: transition entries must be finite\n"

    @pytest.mark.parametrize("subcommand", ["ks", "theorem-check"])
    @pytest.mark.parametrize("system", ["bernoulli:0.5,0.5", "cycle:8"])
    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_nonpositive_cap(self, capsys, subcommand, system, cap):
        assert run([subcommand, "--system", system, "--nmax", "4", "--cap", cap]) == 2
        assert f"cap must be positive, got {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["ks", "theorem-check"])
    @pytest.mark.parametrize("n", [2**20 + 1, 30000000, 10**30])
    def test_cycle_ceiling(self, capsys, subcommand, n):
        assert run([subcommand, "--system", f"cycle:{n}", "--nmax", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cycle of {n} points exceeds the ceiling of {2**20}\n"
        )

    def test_cycle_ceiling_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_CYCLE_POINTS", 8)
        assert run(["ks", "--system", "cycle:8", "--nmax", "2"]) == 0
        assert run(["ks", "--system", "cycle:9", "--nmax", "2"]) == 3
        assert capsys.readouterr().err.endswith(
            "error: cycle of 9 points exceeds the ceiling of 8\n"
        )

    @pytest.mark.parametrize("subcommand", ["ks", "theorem-check"])
    def test_cap_is_clamped_to_the_ceiling(self, capsys, monkeypatch, subcommand):
        monkeypatch.setattr(dynamics, "MAX_WORD_CAP", 64)
        argv = [subcommand, "--system", "bernoulli:0.5,0.5"]
        # 2^6 words fit under the ceiling whatever the cap asked for
        assert run([*argv, "--nmax", "6", "--cap", str(2**34)]) == 0
        capsys.readouterr()
        assert run([*argv, "--nmax", "7", "--cap", str(2**34)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: word enumeration needs 128 entries, over the ceiling of 64 "
            "(a larger cap is lowered to it); lower n_max\n"
        )
        # a cap below the ceiling still applies, with its own message
        assert run([*argv, "--nmax", "7", "--cap", "32"]) == 3
        assert capsys.readouterr().err == (
            "error: word enumeration needs 64 entries, over the cap of 32; "
            "raise the cap explicitly or lower n_max\n"
        )

    @pytest.mark.parametrize(
        "spec, extra, message",
        [
            ("cycle:30000000", ["--nmax", "3"],
             "cycle of 30000000 points exceeds the ceiling"),
            # 5000^2 words of length 2 fit a cap of 2^34 but not the 2^24 ceiling
            ("bernoulli:" + ",".join(["0.0002"] * 5000),
             ["--nmax", "3", "--cap", str(2**34)], "over the ceiling of 16777216"),
            # 10000^2 words of length 2 are refused before any m x m array is built
            ("bernoulli:" + ",".join(["0.0001"] * 10000), ["--nmax", "2"],
             "over the cap of 1048576"),
            # no message, exit 0: two interleaved groups are the fair coin of
            # their masses, 2^n words at length n
            ("bernoulli:" + ",".join(["0.0001"] * 10000),
             ["--nmax", "2", "--partition",
              json.dumps([list(range(0, 10000, 2)), list(range(1, 10000, 2))])],
             None),
        ],
    )
    def test_ceilings_hold_under_a_memory_limit(self, spec, extra, message):
        pytest.importorskip("resource")
        limit = 512 * 2**20
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from entroflow.cli import run\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
               "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code, "ks", "--system", spec, *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == (0 if message is None else 3), done.stderr
        if message is None:
            assert done.stderr == ""
            assert abs(json.loads(done.stdout)["h_estimate"] - 1.0) <= 1e-9
            return
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr

    def test_theorem_check_inconsistency_exit(self, capsys, monkeypatch):
        real = dynamics.theorem_limit_point_check

        def poisoned(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), consistent=False)

        monkeypatch.setattr(dynamics, "theorem_limit_point_check", poisoned)
        assert run(["theorem-check", "--system", "cycle:4"]) == 4
        assert "nonzero rate" in capsys.readouterr().err


class TestPartitionCommand:
    def test_structured_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, SAMPLE_DOC)
        assert run(["partition", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in report["partitions"]]
        assert names == ["halves", "points"]
        assert report["partitions"][0]["entropy_bits"] == 1.0
        assert report["partitions"][1]["entropy_bits"] == 2.0
        assert "pairwise" not in report

    def test_pairwise_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, SAMPLE_DOC)
        assert run(["partition", "--input", path, "--pairwise"]) == 0
        report = json.loads(capsys.readouterr().out)
        (pair,) = report["pairwise"]
        assert pair["left"] == "halves" and pair["right"] == "points"
        assert pair["left_coarsens_right"] is True
        assert pair["right_coarsens_left"] is False
        assert pair["pseudo_distance_bits"] == 1.0
        assert pair["join_atom_count"] == 4

    def test_delimited_format(self, tmp_path, capsys):
        path = write_doc(tmp_path, SAMPLE_DOC)
        out = tmp_path / "report.csv"
        assert run(
            ["partition", "--input", path, "--format", "delimited",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "name,atom_count,entropy_bits"
        assert lines[1] == "halves,2,1.0"

    def test_missing_file(self, capsys):
        assert run(["partition", "--input", "/nonexistent/doc.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"space": \n nope}')
        assert run(["partition", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_point_id(self, tmp_path, capsys):
        doc = {
            "space": {"ids": ["a", "b"], "weights": [0.5, 0.5]},
            "partitions": [{"name": "p", "atoms": [["a", "zz"], ["b"]]}],
        }
        assert run(["partition", "--input", write_doc(tmp_path, doc)]) == 2
        assert "zz" in capsys.readouterr().err

    def test_document_without_partitions(self, tmp_path, capsys):
        doc = {"space": {"ids": ["a"], "weights": [1.0]}, "partitions": []}
        assert run(["partition", "--input", write_doc(tmp_path, doc)]) == 2
        assert "no partitions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space, partitions, message",
        [
            ({"ids": [[1], [2]], "weights": [0.5, 0.5]}, None,
             "point id [1] is not hashable"),
            ({"ids": ["a", "b"], "weights": [0.5, "x"]}, None,
             "{path}: weight 1 is not a number: 'x'"),
            ({"ids": ["a", "b"], "weights": ["0.5", "0.5"]}, None,
             "{path}: weight 0 is not a number: '0.5'"),
            ({"ids": ["a", "b"], "weights": [[0.5], [0.5]]}, None,
             "{path}: weight 0 is not a number: [0.5]"),
            ({"ids": ["a", "b"], "weights": {"a": 1}}, None,
             "{path}: 'ids' and 'weights' must be lists"),
            ({"ids": "ab", "weights": [0.5, 0.5]}, None,
             "{path}: 'ids' and 'weights' must be lists"),
            ([1], None, "{path}: 'space' must be an object"),
            ({"ids": ["a", "b"], "weights": [1, 1], "normalize": "no"}, None,
             "{path}: 'normalize' must be true or false"),
            (None, [3], "{path}: 'partitions' must be a list of objects"),
            (None, {"x": 1}, "{path}: 'partitions' must be a list of objects"),
            (None, [{"name": "p", "atoms": 5}],
             "partition 'p': 'atoms' must be a list of lists"),
            (None, [{"name": "p", "atoms": ["ab"]}],
             "partition 'p': 'atoms' must be a list of lists"),
            (None, [{"atoms": [[["a"]], ["b"]]}], "unknown point id ['a']"),
            ({"ids": [1, True], "weights": [0.5, 0.5]}, None,
             "{path}: point id 1 is a boolean: True"),
            ({"ids": [1, 2], "weights": [0.5, 0.5]},
             [{"name": "p", "atoms": [[True], [2.0]]}], "unknown point id True"),
            ({"ids": [1, 2], "weights": [0.5, 0.5]},
             [{"name": "p", "atoms": [[1], [2.0]]}], "unknown point id 2.0"),
            ({"ids": [1.0, 2], "weights": [0.5, 0.5]},
             [{"name": "p", "atoms": [[1], [2]]}], "unknown point id 1"),
        ],
    )
    def test_malformed_document_exits_2(
        self, tmp_path, capsys, space, partitions, message
    ):
        doc = json.loads(json.dumps(SAMPLE_DOC))
        if space is not None:
            doc["space"] = space
        if partitions is not None:
            doc["partitions"] = partitions
        path = write_doc(tmp_path, doc)
        assert run(["partition", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"

    def test_ids_of_each_json_type(self, tmp_path, capsys):
        doc = {"space": {"ids": [1, 2.5, "a", None], "weights": [1, 1, 1, 1],
                         "normalize": True},
               "partitions": [{"name": "p", "atoms": [[1, 2.5], ["a", None]]}]}
        assert run(["partition", "--input", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["space"]["ids"] == [1, 2.5, "a", None]
        assert report["partitions"][0]["entropy_bits"] == 1.0

    def test_normalize_true_rescales(self, tmp_path, capsys):
        doc = {"space": {"ids": ["a", "b"], "weights": [1, 3], "normalize": True},
               "partitions": [{"name": "p", "atoms": [["a"], ["b"]]}]}
        assert run(["partition", "--input", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["space"]["weights"] == [0.25, 0.75]


class TestEntropyFlowCommand:
    def test_free_chain_rows(self, tmp_path, capsys):
        out = tmp_path / "levels.csv"
        code = run(
            ["entropy-flow", "--k0", "0", "--k1", "0", "--sites", "8",
             "--levels", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines() == [
            "level,atoms,H_bits",
            "0,16,4.0",
            "1,4,2.0",
            "2,2,1.0",
        ]
        record = json.loads(capsys.readouterr().out)
        assert record["entropies"] == [4.0, 2.0, 1.0]
        assert record["coarse_verdict"]["status"] == "refuted"

    def test_single_level_record(self, capsys):
        assert run(["entropy-flow", "--k0", "0.1", "--k1", "0.2", "--sites", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["levels"] == 1
        assert record["coarse_verdict"]["status"] == "witnessed"


class TestTheoremCheckCommand:
    def test_permutation_is_consistent(self, capsys):
        assert run(["theorem-check", "--system", "cycle:4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h_estimate"] == 0.0
        assert record["verdict"]["status"] == "witnessed"
        assert record["consistent"] is True

    def test_bernoulli_refutes_plateau(self, capsys):
        assert run(
            ["theorem-check", "--system", "bernoulli:0.5,0.5", "--nmax", "18"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"]["status"] == "refuted"
        assert record["h_estimate"] == 1.0
        assert record["consistent"] is True

    def test_explicit_partition(self, capsys):
        code = run(
            ["theorem-check", "--system", "cycle:6",
             "--partition", "[[0,1,2],[3,4,5]]"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["consistent"] is True

    def test_bad_partition_json(self, capsys):
        assert run(["theorem-check", "--system", "cycle:4",
                    "--partition", "nope"]) == 2
        assert "bad --partition JSON" in capsys.readouterr().err


class TestConfigFiles:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_valid_config_runs(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {
                "subcommand": "ising-z",
                "params": {"k0": 0.0, "k1": LN2, "n": 2, "check_bruteforce": True},
            },
        )
        assert run(["--config", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["z"] - 8.5) < 1e-12

    def test_config_with_output_file(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        path = self.write(
            tmp_path,
            {
                "subcommand": "ks",
                "params": {"system": "bernoulli:0.5,0.5", "nmax": 4},
                "output": {"format": "delimited", "path": str(out)},
            },
        )
        assert run(["--config", path]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "n,H_n,H_n/n"

    def test_config_tolerance_is_forwarded(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {
                "subcommand": "ising-z",
                "params": {"k0": 0.3, "k1": 0.7, "n": 10, "check_bruteforce": True},
                "tolerances": {"tol": 1e-18},
            },
        )
        assert run(["--config", path]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "subcommand, params, tolerances, message",
        [
            ("theorem-check", {"system": "cycle:8"}, {"epsilon": 0.5},
             "tolerance 'epsilon' does not apply to theorem-check "
             "(set it under params)"),
            ("entropy-flow", {"k0": 0.1, "k1": 0.5, "sites": 8}, {"tol": 1e-9},
             "tolerance 'tol' does not apply to entropy-flow"),
            ("partition", {"input": "doc.json"}, {"tol": 1e-9},
             "tolerance 'tol' does not apply to partition"),
            ("ks", {"system": "cycle:4"}, {"tols": 1e-9},
             "tolerance 'tols' does not apply to ks (did you mean 'tol'?)"),
        ],
    )
    def test_tolerance_the_subcommand_cannot_use(
        self, tmp_path, capsys, subcommand, params, tolerances, message
    ):
        path = self.write(
            tmp_path,
            {"subcommand": subcommand, "params": params, "tolerances": tolerances},
        )
        assert run(["--config", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_string_subcommand(self, tmp_path, capsys):
        path = self.write(tmp_path, {"subcommand": ["ks"], "params": {}})
        assert run(["--config", path]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        path = self.write(
            tmp_path, {"subcommand": "ising-z", "params": {"k0": 0, "k1": 1, "n": 3}}
        )
        cli._parser()

        def rebuilt(*args, **kwargs):
            raise AssertionError("the argument parser was built again")

        monkeypatch.setattr(cli._Parser, "__init__", rebuilt)
        assert run(["--config", path]) == 0
        assert run(["ising-z", "--k0", "0", "--k1", "1", "--n", "3"]) == 0
        capsys.readouterr()

    def test_validate_returns_config(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "subcommand": "ks",
                "params": {"system": "cycle:4"},
                "tolerances": {"tol": 1e-8},
            },
        )
        config = validate_config(path)
        assert config.subcommand == "ks"
        assert config.params == {"system": "cycle:4"}
        assert config.tolerances == {"tol": 1e-8}

    def test_all_violations_collected(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "subcomand": "ks",
                "subcommand": "theorem-check",
                "params": {"epsilonn": 1e-9, "bogus": 1},
                "output": {"format": "csv"},
                "tolerances": {"tol": -1, "other": "x"},
            },
        )
        with pytest.raises(ConfigError) as excinfo:
            validate_config(path)
        violations = excinfo.value.violations
        text = "\n".join(violations)
        assert len(violations) == 7
        assert "did you mean 'subcommand'?" in text
        assert "did you mean 'epsilon'?" in text
        assert "unknown key 'bogus'" in text
        assert "missing required key 'system'" in text
        assert "'delimited' or 'structured'" in text
        assert "tolerance 'tol' must be positive" in text
        assert "tolerance 'other' must be a number" in text

    def test_unknown_subcommand_suggestion(self, tmp_path):
        path = self.write(tmp_path, {"subcommand": "isingz", "params": {}})
        with pytest.raises(ConfigError) as excinfo:
            validate_config(path)
        assert "did you mean 'ising-z'?" in "\n".join(excinfo.value.violations)

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{\n  "subcommand": ks\n}')
        assert run(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_violations_each_get_a_line(self, tmp_path, capsys):
        path = self.write(tmp_path, {"subcommand": "ks", "params": {"frob": 1}})
        assert run(["--config", str(path)]) == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 2  # unknown key + missing 'system'
        assert all(l.startswith("error: ") for l in err_lines)

    def test_missing_config_file(self, capsys):
        assert run(["--config", "/nonexistent/config.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestHelpers:
    def test_emit_record_sorts_keys_and_coerces_numpy(self, capsys):
        text = emit_record(
            {"b": np.float64(1.5), "a": np.int64(2), "c": np.arange(3)}
        )
        assert text == '{"a": 2, "b": 1.5, "c": [0, 1, 2]}'
        assert capsys.readouterr().out == text + "\n"
        assert json.loads(text) == {"a": 2, "b": 1.5, "c": [0, 1, 2]}

    def test_atomic_write_creates_parents_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert os.listdir(target.parent) == ["file.txt"]

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"
        assert os.listdir(tmp_path) == ["file.txt"]


MARKOV = "markov:[[0.9,0.1],[0.5,0.5]]"


class TestFlagsAndConfigAgree:
    """A --config run and the equivalent flags give the same bytes."""

    @pytest.mark.parametrize(
        "code, argv, config",
        [
            (0, ["partition", "--input", "{doc}", "--pairwise",
                 "--format", "delimited"],
             {"subcommand": "partition",
              "params": {"input": "{doc}", "pairwise": True},
              "output": {"format": "delimited"}}),
            (0, ["ks", "--system", MARKOV, "--nmax", "6", "--tol", "1e-08",
                 "--format", "structured"],
             {"subcommand": "ks", "params": {"system": MARKOV, "nmax": 6},
              "output": {"format": "structured"}, "tolerances": {"tol": 1e-8}}),
            # ising-rg takes no --format: the config's output format is unused
            (0, ["ising-rg", "--v0", "0.7", "--v1", "0.9", "--steps", "60"],
             {"subcommand": "ising-rg",
              "params": {"v0": 0.7, "v1": 0.9, "steps": 60},
              "output": {"format": "structured"}}),
            (4, ["ising-z", "--k0", "0.3", "--k1", "0.7", "--n", "10",
                 "--check-bruteforce", "--tol", "1e-18"],
             {"subcommand": "ising-z",
              "params": {"k0": 0.3, "k1": 0.7, "n": 10, "check_bruteforce": True},
              "tolerances": {"tol": 1e-18}}),
            (0, ["entropy-flow", "--k0", "0.1", "--k1", "0.5", "--sites", "8",
                 "--levels", "2", "--format", "structured"],
             {"subcommand": "entropy-flow",
              "params": {"k0": 0.1, "k1": 0.5, "sites": 8, "levels": 2},
              "output": {"format": "structured"}}),
            (0, ["theorem-check", "--system", "cycle:8", "--nmax", "12",
                 "--epsilon", "0.01"],
             {"subcommand": "theorem-check",
              "params": {"system": "cycle:8", "nmax": 12, "epsilon": 0.01}}),
        ],
        ids=cli.SUBCOMMANDS,
    )
    def test_same_stdout_and_file(self, tmp_path, capsys, code, argv, config):
        doc = write_doc(tmp_path, SAMPLE_DOC)
        results = []
        for name in ("flags", "config"):
            out = tmp_path / f"{name}.out"
            if name == "flags":
                args = [a.replace("{doc}", doc) for a in argv] + ["--out", str(out)]
            else:
                params = {k: doc if v == "{doc}" else v
                          for k, v in config["params"].items()}
                output = {**config.get("output", {}), "path": str(out)}
                path = tmp_path / "config.json"
                path.write_text(json.dumps({**config, "params": params,
                                            "output": output}))
                args = ["--config", str(path)]
            assert run(args) == code
            results.append((capsys.readouterr(), out.read_bytes()))
        assert results[0] == results[1]
        assert results[0][1]


@st.composite
def accepted_invocations(draw):
    """Flag sets the parser accepts, with couplings anywhere in |K| <= 300.

    About half of them also ask for an ``--out`` that cannot be written.
    """
    coupling = st.floats(min_value=-300.0, max_value=300.0)
    kind = draw(st.sampled_from(["ising-z", "ising-rg", "entropy-flow"]))
    if kind == "ising-z":
        n = draw(st.integers(2, 20))
        argv = ["ising-z", "--k0", repr(draw(coupling)), "--k1", repr(draw(coupling)),
                "--n", str(n)]
        if draw(st.booleans()):
            argv.append("--log")
        if draw(st.booleans()):
            argv.append("--check-bruteforce")
    elif kind == "ising-rg":
        v = coupling.map(lambda k: repr(math.exp(-k)))
        argv = ["ising-rg", "--v0", draw(v), "--v1", draw(v),
                "--steps", str(draw(st.integers(1, 60)))]
    else:
        argv = ["entropy-flow", "--k0", repr(draw(coupling)),
                "--k1", repr(draw(coupling)),
                "--sites", str(draw(st.integers(2, 8))),
                "--levels", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        # a path below a device file: no directory can be made there
        argv += ["--out", os.path.join(os.devnull, "out")]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a record")


@settings(max_examples=120, deadline=None)
@given(accepted_invocations())
def test_accepted_input_never_exits_1(argv):
    """Exit 0 with a finite record, or one of the documented exits 2, 3, 4."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    if "--out" in argv:
        assert code in (2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0), st.integers(2, 20))
def test_log_domain_bruteforce_anywhere_in_the_cap(k0, k1, n):
    """The brute force holds log Z to double resolution, even past exp's range.

    Exit 4 stays possible: near n = 20 and log Z ~ 1e4 the two routes sit
    a few units in the last place of log Z apart, which the relative gap
    in Z reads as more than the default 1e-12.
    """
    # --k1=VALUE: argparse reads a separate "-1e-05" as an option
    argv = ["ising-z", f"--k0={k0!r}", f"--k1={k1!r}", "--n", str(n),
            "--log", "--check-bruteforce"]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 4)
    record = json.loads(out.getvalue(), parse_constant=_reject_constant)
    log_z, brute = record["log_z"], record["bruteforce_log_z"]
    assert math.isfinite(brute)
    assert abs(log_z - brute) <= 1e-14 * max(1.0, abs(log_z))
    assert ("bruteforce_z" in record) == (brute <= 709.0)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def partition_documents(draw):
    """Arbitrary JSON, or a valid document with one entry swapped for arbitrary JSON."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = json.loads(json.dumps(SAMPLE_DOC))
    path = draw(st.sampled_from([
        ("space",), ("space", "ids"), ("space", "ids", 0), ("space", "weights"),
        ("space", "weights", 1), ("space", "normalize"), ("partitions",),
        ("partitions", 0), ("partitions", 0, "name"), ("partitions", 0, "atoms"),
        ("partitions", 0, "atoms", 1), ("partitions", 1, "atoms", 0, 0),
    ]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return doc


def _run_captured(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented_exit(code, out, err):
    """Exit 0 with finite JSON on stdout, 2 or 3 with one error line only, or 4."""
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0:
        json.loads(out.splitlines()[-1], parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None)
@given(partition_documents())
def test_partition_document_never_exits_1(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_documented_exit(*_run_captured(["partition", "--input", str(path)]))


number_texts = st.sampled_from(["0.5", "0.25", "1", "0", "-0.5", "nan", "inf", "1e400",
                                "NaN", "Infinity", "-Infinity", "", "x", "1e-320"])


@st.composite
def system_specs(draw):
    """Spec text near each accepted form, with non-finite numbers, or arbitrary."""
    form = draw(st.sampled_from(["bernoulli", "markov", "markov json", "cycle", "text"]))
    if form == "bernoulli":
        entries = draw(st.lists(number_texts, min_size=1, max_size=4))
        return "bernoulli:" + ",".join(entries)
    if form == "markov":
        m = draw(st.integers(1, 3))
        rows = [",".join(draw(st.lists(number_texts, min_size=m, max_size=m)))
                for _ in range(m)]
        return "markov:[" + ",".join(f"[{row}]" for row in rows) + "]"
    if form == "markov json":
        return "markov:" + json.dumps(draw(json_values))
    if form == "cycle":
        # above the 2^20 ceiling: exit 3 before anything is allocated
        return f"cycle:{draw(st.integers(-2, 40) | st.integers(2**20 + 1, 2**70))}"
    # no cycle here: one just under the ceiling takes a second
    return draw(st.text(max_size=12).filter(
        lambda t: t.partition(":")[0].strip().lower() != "cycle"))


@st.composite
def partition_texts(draw):
    """``--partition`` text: none, index lists with stray entries, any JSON or text."""
    form = draw(st.sampled_from(["none", "indices", "json", "text"]))
    if form == "none":
        return None
    if form == "indices":
        entry = st.integers(-1, 5) | st.sampled_from([0.0, 1.5, True, None, "1", [0]])
        return json.dumps(draw(st.lists(st.lists(entry, max_size=4), max_size=4)))
    if form == "json":
        return json.dumps(draw(json_values))
    return draw(st.text(max_size=12))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["ks", "theorem-check"]), system_specs(), partition_texts(),
       st.integers(1, 6), st.sampled_from([None, "-1", "3", "64", str(2**34)]))
def test_system_and_partition_text_never_exit_1(subcommand, spec, partition, nmax, cap):
    argv = [subcommand, "--system", spec, "--nmax", str(nmax)]
    if partition is not None:
        argv += ["--partition", partition]
    if cap is not None:
        argv += ["--cap", cap]
    _assert_documented_exit(*_run_captured(argv))
