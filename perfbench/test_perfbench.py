"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from checks import check, run_cli  # noqa: E402
from tracing import SPANS, Tracer, per_layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def data():
    return wl.load_data()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_list_is_identical_for_a_fixed_seed(workload, data):
    first = wl.build(workload, 7, data)
    assert wl.build(workload, 7, data) == first
    assert wl.pass_order(first[0], 7, 1) == wl.pass_order(wl.build(workload, 7, data)[0], 7, 1)
    assert wl.build(workload, 8, data) != first


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_op_has_what_its_check_needs(workload, data):
    units, files = wl.build(workload, 3, data)
    ops = [op for unit in units for op in unit]
    assert len(ops) >= 100  # p90 needs ten ops beyond it
    for op in ops:
        if op["expect"]["digest"] is not None:
            assert op["expect"]["digest"] in data["digests"]
        for arg in op["argv"][1:]:
            if arg.endswith(".json") and arg != op["out"] and not arg.startswith("km_"):
                assert arg in files


def test_wrong_targets_have_the_same_order():
    for source in wl.DISGUISED_SOURCES:
        spec = source.split(" ", 1)[1]
        assert wl.group_order(wl.wrong_target(spec)) == wl.group_order(spec)
        assert wl.wrong_target(spec) != spec


def _verify_op(tmp_path, exit_code, verdict):
    path = tmp_path / "su3.json"
    path.write_text(wl.matrix_file([[2, -1], [-1, 2]]))
    return {"argv": ["verify", str(path), "--target", "B[3]"], "out": None, "order": 3,
            "expect": {"exit": exit_code, "verdict": verdict, "digest": None, "model": False}}


def test_check_fails_an_op_whose_expected_verdict_is_flipped(tmp_path):
    from anyonlat.cli import main

    op = _verify_op(tmp_path, 0, "pass")
    code, stdout, error, _ = run_cli(main, op["argv"])
    assert check(op, code, stdout, error, None, {}) == []
    flipped = _verify_op(tmp_path, 1, "FAIL")
    problems = check(flipped, code, stdout, error, None, {})
    assert "exit 0, expected 1" in problems
    assert "verdict pass, expected FAIL" in problems


def test_check_fails_a_changed_output_file():
    op = {"argv": ["kmatrix", "B[3]"], "out": "k.json", "order": 3,
          "expect": {"exit": 0, "verdict": "pass", "digest": "kmatrix B[3]", "model": False}}
    stdout = "verdict: pass\n"
    assert check(op, 0, stdout, None, b"x", {"kmatrix B[3]": "0" * 64})
    assert check(op, 0, stdout, None, None, {"kmatrix B[3]": "0" * 64})


def test_check_compares_closed_forms_with_the_oracles():
    op = {"argv": ["model", "B[3]"], "out": None, "order": 3,
          "expect": {"exit": 0, "verdict": None, "digest": None, "model": True}}
    good = ("central charge: closed form 2, Gauss sum 2\n"
            "|Aut B[3]| = 2 (Z2)  [closed form]\n|Aut| = 2 (Z2)  [brute force]\n")
    assert check(op, 0, good, None, None, {}) == []
    assert check(op, 0, good.replace("Gauss sum 2", "Gauss sum 6"), None, None, {})
    assert check(op, 0, good.replace("|Aut| = 2", "|Aut| = 4"), None, None, {})
    assert check(op, None, "", "MemoryError: ", None, {}) == ["raised MemoryError: "]


def test_every_wrapped_name_resolves_to_its_wrapper():
    import anyonlat.cli
    import anyonlat.lattices
    import anyonlat.linalg

    original = anyonlat.linalg.determinant
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.alias_problems() == []
        wrapper = anyonlat.linalg.determinant
        assert wrapper is not original
        assert anyonlat.lattices.determinant is wrapper
        assert anyonlat.cli.verify_realization is anyonlat.lattices.verify_realization
        anyonlat.lattices.determinant = original  # an alias the install missed
        assert "anyonlat.lattices.determinant does not resolve to the wrapper" in tracer.alias_problems()
    finally:
        tracer.uninstall()
    assert anyonlat.linalg.determinant is original


def test_traced_op_splits_into_self_times_and_other(tmp_path):
    from anyonlat.cli import main

    op = _verify_op(tmp_path, 0, "pass")
    tracer = Tracer()
    tracer.install()
    try:
        before = tracer.begin_op()
        code, _, error, seconds = run_cli(main, op["argv"])
        layers = tracer.op_self(before)
    finally:
        tracer.uninstall()
    assert code == 0 and error is None
    assert "lattices.verify_realization" in layers and "linalg.determinant" in layers
    assert all(t >= 0 for t in layers.values())
    assert sum(layers.values()) <= seconds
    metrics = tracer.metrics(seconds - sum(layers.values()), seconds, seconds)
    assert set(metrics) == set(per_layer_metrics())
    assert metrics["metric_groups.central_charge_gauss.elements"] == 3


def test_layer_names_fit_the_benchmark_limits():
    names = list(per_layer_metrics())
    assert len(names) == len(set(names)) <= 128
    assert all(len(name) <= 64 for name in names)
    assert len(SPANS) == 27  # 26 functions and Lattice.__post_init__


def test_each_record_is_scaled_by_the_probes_around_its_unit():
    nominal = speed.NOMINAL_S
    # units start at records 0, 2 and 5; the last probe follows the last unit
    reference = [(0, nominal), (2, 3 * nominal), (5, nominal), (6, nominal / 3)]
    assert speed.record_scales(reference, 6) == pytest.approx([0.5] * 5 + [1.5])
    assert speed.probe_seconds() > 0
