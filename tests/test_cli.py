"""Tests for the command-line interface, run in-process via main()."""

import contextlib
import io
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shallowcheck import (
    Circuit,
    Layer,
    circuit_to_json,
    description_to_json,
    named_gate,
    random_circuit,
)
from shallowcheck import description
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

    def test_out_of_memory_on_the_pool_exits_three(
        self, tmp_path, capsys, monkeypatch, blas_threads
    ):
        # A wide description on two CPUs is built on the pool; one entry
        # runs out of memory there.
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(circuit_to_json(random_circuit(12, 5, seed=1))))
        threads = set()
        entry = description._entry

        def exhausted(t, *args):
            threads.add(threading.current_thread())
            if t == 3:
                raise MemoryError
            return entry(t, *args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(description, "_entry", exhausted)
        assert main(["describe", str(wide)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: allocation failed\n"
        assert threading.current_thread() not in threads
        assert not any(t.is_alive() for t in threads)
        assert blas_threads() == 2

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


#: Files the JSON decoder rejects with something other than a
#: ``JSONDecodeError``: bytes that are not UTF-8 (``UnicodeDecodeError``),
#: nesting deeper than the recursion limit (``RecursionError``) and an
#: integer literal past Python's 4300-digit limit (``ValueError``).
UNDECODABLE = {
    "non-utf8": b"\xff\xfe{",
    "deep": b"[" * 200_000,
    "long-int": b"1" * 4301,
}

#: Each subcommand that reads documents, with the malformed file ``{bad}``
#: read first or after a valid circuit ``{good}``.
READERS = [
    ["describe", "{bad}"],
    ["equiv", "{bad}", "{good}"],
    ["equiv", "{good}", "{bad}"],
    ["assert", "{bad}", "{good}"],
    ["assert", "{good}", "{bad}"],
]


def _run_on(argv, good, bad):
    return main([arg.format(good=good, bad=bad) for arg in argv])


class TestMalformedFiles:
    """A file that does not decode is malformed input (exit 2), never a
    failing verdict (exit 1) or a traceback."""

    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
    @pytest.mark.parametrize("argv", READERS, ids=[" ".join(a) for a in READERS])
    def test_undecodable_file_exits_two(self, circuit_file, tmp_path, capsys, argv, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert _run_on(argv, circuit_file, str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(READERS),
        st.one_of(
            # Random bytes, which never spell a whole document.
            st.binary(max_size=64),
            st.tuples(
                st.binary(max_size=16), st.sampled_from([b"\xff", b"\xc0", b"\x80"]),
                st.binary(max_size=16),
            ).map(b"".join),
            st.tuples(st.sampled_from([b"[", b'{"layers": ']), st.integers(1, 200_000))
            .map(lambda t: t[0] * t[1]),
            st.tuples(st.sampled_from([b"", b'{"n_qubits": ']), st.integers(4301, 20_000))
            .map(lambda t: t[0] + b"7" * t[1]),
        ),
    )
    def test_malformed_documents_never_exit_one(self, tmp_path_factory, argv, content):
        folder = tmp_path_factory.mktemp("malformed")
        good = folder / "good.json"
        good.write_text(json.dumps(circuit_to_json(random_circuit(3, 1, seed=0))))
        bad = folder / "bad.json"
        bad.write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(io.StringIO()):
                assert _run_on(argv, str(good), str(bad)) == 2
        assert out.getvalue() == ""


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


def _expected(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _described(circuit) -> str:
    return _expected(description_to_json(compute_description(circuit)))


class TestOutput:
    """Every command writes ``json.dumps(obj, indent=2)`` and a newline,
    streamed through one writer, and a written file gets the mode an
    ordinary ``open`` would: the old file's, or the umask's."""

    def test_describe_bytes(self, circuit_file, tmp_path, capsys):
        expected = _described(random_circuit(6, 2, seed=3))
        out = tmp_path / "desc.json"
        assert main(["describe", circuit_file]) == 0
        assert main(["describe", circuit_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == expected
        assert out.read_text() == expected

    def test_describe_out_never_builds_the_whole_text(self, circuit_file, tmp_path, monkeypatch):
        expected = _described(random_circuit(6, 2, seed=3))
        calls = []
        dumps = json.dumps

        def spy(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        out = tmp_path / "desc.json"
        assert main(["describe", circuit_file, "--out", str(out)]) == 0
        assert calls == []
        assert out.read_text() == expected

    def test_random_and_simulate_bytes(self, tmp_path, capsys):
        from shallowcheck.oracle import simulate

        c = random_circuit(5, 2, seed=4)
        state = simulate(c)
        amplitudes = {
            "n_qubits": 5,
            "amplitudes": np.stack([state.real, state.imag], axis=-1).tolist(),
        }
        circuit, sim = tmp_path / "c.json", tmp_path / "s.json"
        argv = ["random", "--n", "5", "--depth", "2", "--seed", "4"]
        assert main(argv) == 0
        assert capsys.readouterr().out == _expected(circuit_to_json(c))
        assert main(argv + ["--out", str(circuit)]) == 0
        assert circuit.read_text() == _expected(circuit_to_json(c))
        assert main(["simulate", str(circuit)]) == 0
        assert capsys.readouterr().out == _expected(amplitudes)
        assert main(["simulate", str(circuit), "--out", str(sim)]) == 0
        assert sim.read_text() == _expected(amplitudes)

    @pytest.mark.parametrize("mode", ["weak", "strong"])
    def test_equiv_bytes(self, circuit_file, tmp_path, capsys, mode):
        report = tmp_path / "report.json"
        argv = ["equiv", circuit_file, circuit_file, "--mode", mode, "--report", str(report)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == _expected(json.loads(printed))
        assert report.read_text() == printed

    def test_assert_bytes(self, circuit_file, tmp_path, capsys):
        desc = tmp_path / "desc.json"
        assert main(["describe", circuit_file, "--out", str(desc)]) == 0
        assert main(["assert", circuit_file, str(desc)]) == 0
        printed = capsys.readouterr().out
        assert printed == _expected(json.loads(printed))

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_new_file_mode_follows_the_umask(self, circuit_file, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert main(["describe", circuit_file, "--out", str(tmp_path / "d.json")]) == 0
            assert main(["bench", "--mode", "weak", "--n-range", "2", "--depth", "1",
                         "--trials", "1", "--csv", str(tmp_path / "b.csv")]) == 0
        finally:
            os.umask(old)
        for name in ("d.json", "b.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o644, 0o664, 0o640], ids=oct)
    def test_replaced_file_keeps_its_mode(self, circuit_file, tmp_path, mode):
        desc, csv = tmp_path / "d.json", tmp_path / "b.csv"
        desc.write_text("old\n")
        csv.write_text(CSV_HEADER + "\n")
        for path in (desc, csv):
            path.chmod(mode)
        assert main(["describe", circuit_file, "--out", str(desc)]) == 0
        assert main(["bench", "--mode", "weak", "--n-range", "2", "--depth", "1",
                     "--trials", "1", "--csv", str(csv)]) == 0
        assert json.loads(desc.read_text())["n_qubits"] == 6
        assert len(csv.read_text().splitlines()) == 2
        for path in (desc, csv):
            assert path.stat().st_mode & 0o777 == mode


#: Integer options as strings: small integers, edge integers beyond 64
#: bits, and strings that name a boolean or are not integers at all.
NOT_INTEGERS = st.sampled_from(["True", "False", "true", "1.0", "0x1", "", "yes"])


def _integers(high: int):
    return st.one_of(st.integers(-3, high).map(str), NOT_INTEGERS)


#: Seeds and caps, from small to past 64 bits.
ANY_INTEGER = st.one_of(
    _integers(8),
    st.sampled_from([-(2**70), -(2**63), 2**63, 2**64, 2**70]).map(str),
)


class TestIntegerOptions:
    def test_negative_random_seed_exits_two(self, capsys):
        assert main(["random", "--n", "4", "--depth", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"

    def test_non_integer_option_exits_two(self, capsys):
        assert main(["random", "--n", "4", "--depth", "1", "--seed", "True"]) == 2
        assert "invalid int value: 'True'" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @example(["random", "--n", "4", "--depth", "1", "--seed", "-1"])
    @given(
        st.one_of(
            st.tuples(_integers(64), _integers(4), ANY_INTEGER).map(
                lambda t: ["random", "--n", t[0], "--depth", t[1], "--seed", t[2]]
            ),
            st.tuples(
                st.sampled_from(["describe", "weak", "strong", "inequiv"]),
                ANY_INTEGER, _integers(2), _integers(4),
            ).map(
                lambda t: ["bench", "--mode", t[0], "--n-range", "2:4:2", "--seed", t[1],
                           "--trials", t[2], "--depth", t[3], "--csv", "{folder}/b.csv"]
            ),
            ANY_INTEGER.map(lambda cap: ["describe", "{folder}/c.json", "--cap", cap]),
        )
    )
    def test_main_never_raises(self, tmp_path_factory, argv):
        folder = tmp_path_factory.mktemp("options")
        (folder / "c.json").write_text(json.dumps(circuit_to_json(random_circuit(4, 2, seed=1))))
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main([arg.format(folder=folder) for arg in argv]) in (0, 2, 3)
