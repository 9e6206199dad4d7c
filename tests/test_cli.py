"""Tests for the command-line interface, run in-process via main()."""

import json

import numpy as np
import pytest

from shallowcheck import (
    Circuit,
    Layer,
    circuit_to_json,
    description_to_json,
    named_gate,
    random_circuit,
)
from shallowcheck.cli import CSV_HEADER, main
from shallowcheck.config import SUPPORT_CAP_ENV
from shallowcheck.description import compute_description


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit_to_json(random_circuit(6, 2, seed=3))))
    return str(path)


class TestDescribe:
    def test_stdout_output(self, circuit_file, capsys):
        assert main(["describe", circuit_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_qubits"] == 6
        assert len(payload["projections"]) == 6

    def test_out_file(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "desc.json"
        assert main(["describe", circuit_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert len(payload["projections"]) == 6

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 2,\n  "layers": [[}')
        assert main(["describe", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:2:" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["describe", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_schema_violation(self, tmp_path, capsys):
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps({"n_qubits": 2, "layers": [], "foo": 1}))
        assert main(["describe", str(doc)]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_invalid_circuit(self, tmp_path, capsys):
        doc = tmp_path / "c.json"
        doc.write_text(
            json.dumps({"n_qubits": 1, "layers": [[{"qubits": [4], "name": "X"}]]})
        )
        assert main(["describe", str(doc)]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("build", ["layer", "circuit"])
    def test_non_gate_items_are_malformed_input(
        self, circuit_file, capsys, monkeypatch, build
    ):
        # A decoder that hands a layer something other than a gate, or a
        # circuit something other than a layer, fails with exit 2.
        def decode(obj):
            if build == "layer":
                return Circuit(2, [Layer([(0, 1)])])
            return Circuit(2, [[named_gate("X", (0,))]])

        monkeypatch.setattr("shallowcheck.cli.circuit_from_json", decode)
        assert main(["describe", circuit_file]) == 2
        assert main(["equiv", circuit_file, circuit_file]) == 2
        assert "holds" in capsys.readouterr().err

    def test_capacity_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps(circuit_to_json(random_circuit(8, 3, seed=0))))
        assert main(["describe", str(doc)]) == 3
        assert "support cap" in capsys.readouterr().err

    def test_cap_flag(self, circuit_file, capsys):
        assert main(["describe", circuit_file, "--cap", "3"]) == 3
        capsys.readouterr()

    def test_cap_flag_overrides_configured_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps(circuit_to_json(random_circuit(8, 3, seed=1))))
        assert main(["describe", str(doc), "--cap", "8"]) == 0
        assert len(json.loads(capsys.readouterr().out)["projections"]) == 8

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_malformed_input(self, tmp_path, capsys, cap, depth):
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps(circuit_to_json(random_circuit(4, depth, seed=1))))
        assert main(["describe", str(doc), "--cap", cap]) == 2
        assert "at least 1" in capsys.readouterr().err


class TestEquiv:
    def test_self_pair_exit_zero(self, circuit_file, capsys):
        assert main(["equiv", circuit_file, circuit_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "equivalent"
        assert payload["mode"] == "weak"

    def test_distinct_pair_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(circuit_to_json(random_circuit(5, 2, seed=1))))
        b.write_text(json.dumps(circuit_to_json(random_circuit(5, 2, seed=2))))
        assert main(["equiv", str(a), str(b)]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "inequivalent"

    def test_strong_mode(self, tmp_path, capsys):
        s = tmp_path / "s.json"
        t = tmp_path / "t.json"
        s.write_text(
            json.dumps({"n_qubits": 1, "layers": [[{"qubits": [0], "name": "S"}]]})
        )
        t.write_text(
            json.dumps({"n_qubits": 1, "layers": [[{"qubits": [0], "name": "T"}]]})
        )
        assert main(["equiv", str(s), str(t), "--mode", "weak"]) == 0
        capsys.readouterr()
        assert main(["equiv", str(s), str(t), "--mode", "strong"]) == 1
        assert json.loads(capsys.readouterr().out)["mode"] == "strong"

    def test_report_file(self, circuit_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["equiv", circuit_file, circuit_file, "--report", str(report)]) == 0
        on_disk = json.loads(report.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed

    def test_threshold_flag(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(circuit_to_json(random_circuit(4, 1, seed=5))))
        assert main(["equiv", str(a), str(a), "--threshold", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 1e-3

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("mode", ["weak", "strong"])
    def test_malformed_threshold_is_malformed_input(self, circuit_file, capsys, threshold, mode):
        # A self-pair is never reported inequivalent, nor any pair passed.
        args = ["equiv", circuit_file, circuit_file, "--mode", mode, "--threshold", threshold]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_width_mismatch_is_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(circuit_to_json(random_circuit(4, 1, seed=1))))
        b.write_text(json.dumps(circuit_to_json(random_circuit(5, 1, seed=1))))
        assert main(["equiv", str(a), str(b)]) == 2
        capsys.readouterr()

    def test_memory_error_exits_three_not_one(self, circuit_file, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("shallowcheck.cli.check_strong", exhausted)
        assert main(["equiv", circuit_file, circuit_file, "--mode", "strong"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: allocation failed\n"


class TestAssert:
    def test_own_description_holds(self, circuit_file, tmp_path, capsys):
        desc = tmp_path / "desc.json"
        assert main(["describe", circuit_file, "--out", str(desc)]) == 0
        assert main(["assert", circuit_file, str(desc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is True
        assert len(payload["entries"]) == 6
        for entry in payload["entries"]:
            assert entry["holds"] is True

    def test_failing_assertion_exit_one(self, circuit_file, tmp_path, capsys):
        c = random_circuit(6, 2, seed=3)
        d = compute_description(c)
        obj = description_to_json(d)
        # Complement the first projection so exactly one entry fails.
        m = np.array([[p[0] + 1j * p[1] for p in row] for row in obj["projections"][0]["matrix"]])
        comp = np.eye(m.shape[0]) - m
        obj["projections"][0]["matrix"] = [
            [[float(x.real), float(x.imag)] for x in row] for row in comp
        ]
        path = tmp_path / "assert.json"
        path.write_text(json.dumps(obj))
        assert main(["assert", circuit_file, str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is False
        holds = [e["holds"] for e in payload["entries"]]
        assert holds == [False] + [True] * 5

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_malformed_threshold_is_malformed_input(
        self, circuit_file, tmp_path, capsys, threshold
    ):
        desc = tmp_path / "desc.json"
        assert main(["describe", circuit_file, "--out", str(desc)]) == 0
        capsys.readouterr()
        assert main(["assert", circuit_file, str(desc), "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_qubit_count_mismatch(self, circuit_file, tmp_path, capsys):
        other = compute_description(random_circuit(4, 1, seed=1))
        path = tmp_path / "assert.json"
        path.write_text(json.dumps(description_to_json(other)))
        assert main(["assert", circuit_file, str(path)]) == 2
        assert "declares 4 qubit" in capsys.readouterr().err


class TestRandomAndSimulate:
    def test_pipeline(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        assert main(["random", "--n", "8", "--depth", "3", "--seed", "7", "--out", str(c)]) == 0
        assert main(["describe", str(c)]) == 0
        capsys.readouterr()

    def test_random_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["random", "--n", "5", "--depth", "2", "--seed", "4", "--out", str(a)])
        main(["random", "--n", "5", "--depth", "2", "--seed", "4", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_random_stdout(self, capsys):
        assert main(["random", "--n", "3", "--depth", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_qubits"] == 3

    def test_simulate_amplitudes(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        c.write_text(
            json.dumps(
                {
                    "n_qubits": 2,
                    "layers": [
                        [{"qubits": [0], "name": "H"}],
                        [{"qubits": [0, 1], "name": "CNOT"}],
                    ],
                }
            )
        )
        assert main(["simulate", str(c)]) == 0
        payload = json.loads(capsys.readouterr().out)
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        assert np.allclose(amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_simulate_refuses_large_circuits(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        main(["random", "--n", "20", "--depth", "1", "--out", str(c)])
        assert main(["simulate", str(c)]) == 3
        assert "cap" in capsys.readouterr().err


class TestBench:
    def test_row_count_and_header(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        code = main(
            ["bench", "--mode", "describe", "--n-range", "4:10:2",
             "--depth", "2", "--trials", "3", "--csv", str(csv)]
        )
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "describe"
            assert fields[7] == ""  # describe rows carry no residual
            assert float(fields[5]) >= 0.0

    def test_single_size_range(self, tmp_path):
        csv = tmp_path / "bench.csv"
        main(["bench", "--mode", "describe", "--n-range", "6",
              "--depth", "1", "--trials", "2", "--csv", str(csv)])
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_append_keeps_single_header(self, tmp_path):
        csv = tmp_path / "bench.csv"
        args = ["bench", "--mode", "describe", "--n-range", "4",
                "--depth", "1", "--trials", "1", "--csv", str(csv)]
        assert main(args) == 0
        assert main(args) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert CSV_HEADER not in lines[1:]

    def test_deterministic_except_seconds(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            main(["bench", "--mode", "weak", "--n-range", "4:6:2",
                  "--depth", "2", "--trials", "2", "--seed", "5",
                  "--csv", str(path)])

        def strip_seconds(text):
            rows = []
            for line in text.strip().split("\n")[1:]:
                fields = line.split(",")
                rows.append(fields[:5] + fields[6:])
            return rows

        assert strip_seconds(a.read_text()) == strip_seconds(b.read_text())

    def test_weak_self_pairs_have_tiny_residual(self, tmp_path):
        csv = tmp_path / "bench.csv"
        main(["bench", "--mode", "weak", "--n-range", "4:8:2",
              "--depth", "3", "--trials", "2", "--csv", str(csv)])
        for line in csv.read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[7]) <= 1e-10

    def test_inequiv_mode_pairs_different_circuits(self, tmp_path):
        csv = tmp_path / "bench.csv"
        main(["bench", "--mode", "inequiv", "--n-range", "6",
              "--depth", "2", "--trials", "3", "--csv", str(csv)])
        for line in csv.read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[7]) > 1e-3

    def test_strong_mode_runs(self, tmp_path):
        csv = tmp_path / "bench.csv"
        main(["bench", "--mode", "strong", "--n-range", "4",
              "--depth", "1", "--trials", "1", "--csv", str(csv)])
        line = csv.read_text().strip().split("\n")[1]
        assert line.startswith("strong,4,1,0,")
        assert float(line.split(",")[7]) <= 1e-10

    def test_capacity_rows_recorded_and_run_continues(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        csv = tmp_path / "bench.csv"
        code = main(["bench", "--mode", "describe", "--n-range", "8",
                     "--depth", "3", "--trials", "2", "--csv", str(csv)])
        assert code == 0
        assert "note:" in capsys.readouterr().err
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[6] == "4"  # the support size that tripped the cap
            assert fields[7] == ""

    @pytest.mark.parametrize(
        ("mode", "overflow"),
        [
            ("describe", "support of qubit 2 would reach 4 qubit(s) at layer 1"),
            ("weak", "support of qubit 2 would reach 4 qubit(s) at layer 1"),
            ("strong", "support of qubit 0 would reach 4 qubit(s) at layer 2"),
            ("inequiv", "support of qubit 2 would reach 4 qubit(s) at layer 1"),
        ],
    )
    def test_capacity_row_per_mode(self, tmp_path, capsys, monkeypatch, mode, overflow):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--mode", mode, "--n-range", "8", "--depth", "3",
                     "--trials", "1", "--csv", str(csv)]) == 0
        assert capsys.readouterr().err == (
            f"note: n=8 depth=3 trial=0: {overflow}, exceeding the support cap of 3\n"
        )
        header, row = csv.read_text().strip().split("\n")
        assert header == CSV_HEADER
        fields = row.split(",")
        assert float(fields[5]) >= 0.0
        assert fields[:5] + fields[6:] == [mode, "8", "3", "0", "6255131401728597803", "4", ""]

    def test_bad_range_rejected(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        for bad in ("4:2:1", "4:8:0", "a:b:c", "1:2:3:4"):
            assert main(["bench", "--mode", "describe", "--n-range", bad,
                         "--depth", "1", "--csv", str(csv)]) == 2
            capsys.readouterr()

    @pytest.mark.parametrize("mode", ["describe", "weak", "strong", "inequiv"])
    def test_negative_depth_rejected_before_any_row(self, tmp_path, capsys, mode):
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--mode", mode, "--n-range", "2", "--depth", "-2",
                     "--csv", str(csv)]) == 2
        assert "--depth must be non-negative, got -2" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("sizes", ["-3", "1", "0:4:2"])
    def test_sizes_below_two_rejected_before_any_row(self, tmp_path, capsys, sizes):
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--mode", "weak", "--n-range", sizes, "--depth", "1",
                     "--csv", str(csv)]) == 2
        assert "sizes must be at least 2" in capsys.readouterr().err
        assert not csv.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        assert main(["bench", "--mode", "describe", "--n-range", "4",
                     "--depth", "1", "--seed", "-3", "--csv", str(csv)]) == 2
        capsys.readouterr()
