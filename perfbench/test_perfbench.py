"""Self-tests of the benchmark: the gate, the span arithmetic, the tracing hooks.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from momentcurve import cli  # noqa: E402
from momentcurve import moments  # noqa: E402


def _run(tmp_path, cmd):
    code = cli.main(list(cmd.argv))
    index = tmp_path / "manifests" / "index.jsonl"
    paths = json.loads(index.read_text().splitlines()[-1])["outputs"]
    return {"label": cmd.label, "check": cmd.check, "exit_code": code, "error": None,
            "outputs": gate.load_outputs(paths)}


@pytest.fixture
def exact_outcome(tmp_path):
    # N^(2s) = 5^4 is small enough for the brute-force oracle.
    cmd = workloads._moment(5, 2, 1.0, "random_phase", 3, "exact", 0.25)
    cmd = workloads.Command(cmd.argv + ("--out", str(tmp_path)), cmd.check, cmd.label)
    return _run(tmp_path, cmd)


@pytest.fixture
def geometry_outcome(tmp_path):
    argv = ("geometry", "partition", "--R", "1048576", "--beta", "0.5",
            "--samples", "2000", "--seed", "4", "--out", str(tmp_path))
    return _run(tmp_path, workloads.Command(argv, {"kind": "geometry", "check": "partition"}))


def _perturb(outcome, rel):
    bad = copy.deepcopy(outcome)
    bad["outputs"]["json"][0]["value"] *= 1.0 + rel
    return bad


class TestGate:
    def test_correct_outputs_pass(self, exact_outcome, geometry_outcome):
        assert gate.check_outcome(exact_outcome) == []
        assert gate.check_outcome(geometry_outcome) == []

    def test_flags_value_perturbed_by_1e_6(self, exact_outcome):
        problems = gate.check_outcome(_perturb(exact_outcome, 1e-6))
        assert any("brute force" in p for p in problems)

    def test_reference_flags_value_perturbed_by_1e_6(self, exact_outcome):
        values = gate.values_of(exact_outcome["check"], exact_outcome["outputs"])
        reference = {exact_outcome["label"]: {"source": "test", "values": values}}
        assert gate.check_outcome(exact_outcome, reference) == []
        stored = {exact_outcome["label"]: {"source": "test", "values": {
            "value": values["value"] * (1.0 + 1e-6)}}}
        assert gate.reference_problems(exact_outcome["label"], values, stored)

    def test_flags_integer_moment_that_is_not_integer(self, tmp_path):
        cmd = workloads._moment(6, 2, 0.0, "random_sign", 5, "exact")
        cmd = workloads.Command(cmd.argv + ("--out", str(tmp_path)), cmd.check, cmd.label)
        outcome = _run(tmp_path, cmd)
        assert gate.check_outcome(outcome) == []
        problems = gate.check_outcome(_perturb(outcome, 1e-6))
        assert any("not an integer" in p for p in problems)

    def test_flags_nonzero_exit_and_exception(self, exact_outcome):
        assert gate.check_outcome(dict(exact_outcome, exit_code=3)) == ["exit code 3"]
        assert gate.check_outcome(dict(exact_outcome, error="Boom"))

    def test_flags_one_geometry_violation(self, geometry_outcome):
        bad = copy.deepcopy(geometry_outcome)
        bad["outputs"]["json"][0]["violations"] = 1
        assert gate.check_outcome(bad) == ["1 geometry violations"]


def _span(sid, parent, start, end):
    return spans.Span(sid, parent, f"s{sid}", start, end)


def test_self_time_on_nested_trace():
    trace = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),   # overlaps its sibling 3, as on two threads
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),  # outlives its parent: only 9..10 counts
        _span(6, None, 20.0, 21.0),
    ]
    assert spans.self_times(trace) == pytest.approx(
        {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 1.0}
    )


def test_adjusted_wall_on_synthetic_passes():
    ref = hostspeed.REFERENCE_S["sort"]
    # Each command is scaled by the mean of the kernel runs on either side:
    # a kernel at 3 * ref after a command at ref before it halves its time.
    passes = [
        {"command_walls": [1.0, 6.0], "command_kernels_s": [ref, ref, 3 * ref]},
        {"command_walls": [3.0, 8.0], "command_kernels_s": [ref, ref, 3 * ref]},
        {"command_walls": [4.0, 7.0], "command_kernels_s": [2 * ref, 2 * ref, 2 * ref]},
    ]
    for p in passes:
        p["kernel"] = "sort"
    # Command 0: 1.0, 3.0, 4.0 / 2 -> median 2.0.
    # Command 1: 6.0 / 2, 8.0 / 2, 7.0 / 2 -> median 3.5.
    assert run.adjusted_wall(passes) == pytest.approx(5.5)
    assert run.best_wall(passes) == pytest.approx(1.0 + 6.0)
    assert hostspeed.adjust(0.5, "sort", 2 * ref) == pytest.approx(0.25)


def test_install_records_nested_spans_and_restores(tmp_path):
    original = moments.build_group_table
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        token = rec.open("cli.main")
        assert cli.main(["moment", "--N", "6", "--s", "2", "--sigma", "1.0",
                         "--out", str(tmp_path)]) == 0
        rec.close(token)
    finally:
        restore()
    assert moments.build_group_table is original
    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp.name, []).append(sp)
    (exact,) = by_name["moments.moment_exact"]
    (table,) = by_name["moments.build_group_table"]
    assert table.parent == exact.id
    assert all(k.parent == exact.id for k in by_name["moments.interval_kernel"])
    assert exact.parent == by_name["cli.main"][0].id
    metrics = spans.layer_metrics(rec, sweep_capacity_s=0.0)
    assert metrics["moments.n_tuples"] == 36
    assert metrics["moments.kernel_evals"] > 0
    assert 0.0 <= metrics["moments.pair_s"] < exact.duration


def test_workload_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, str(tmp_path / "a"))
        b = workloads.generate(name, 7, str(tmp_path / "b"))
        c = workloads.generate(name, 8, str(tmp_path / "c"))
        assert [x.label for x in a] == [x.label for x in b]
        assert len(a) == len(c)
        for x, y in zip(a, b):
            if x.argv[0] == "sweep":
                assert open(x.argv[1]).read() == open(y.argv[1]).read()
    assert len(workloads.generate("geometry-suite", 1, str(tmp_path / "g"))) == 100
