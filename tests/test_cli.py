import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from permbound import bounds, cli, exact, table1
from permbound.matrixio import from_entries, matrix_to_json, tensor_to_json


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "permbound.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture
def small_matrix(tmp_path):
    path = tmp_path / "m22.json"
    doc = matrix_to_json(from_entries(np.array([[1.0, 2.0], [3.0, 4.0]])))
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def phase_matrix(tmp_path):
    path = tmp_path / "phase.json"
    doc = {"unit_circle": {"x": table1.EXPONENTS.tolist(), "t": math.pi / 2}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    doc = {
        "cells": [
            [
                {"family": "point_mass", "params": {"x": 0.3}},
                {"family": "bernoulli", "params": {"p": 0.5}},
            ],
            [
                {"family": "uniform", "params": {"a": -1.0, "b": 1.0}},
                {"family": "normal", "params": {"mean": 0.0, "variance": 0.5}},
            ],
        ]
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_exact_permanent_json(small_matrix):
    proc = run_cli("exact", "per", "--input", small_matrix, "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "per"
    assert doc["shape"] == [2, 2]
    assert doc["value"]["re"] == pytest.approx(10.0)
    assert doc["value"]["im"] == pytest.approx(0.0)


def test_exact_permanent_text(small_matrix):
    proc = run_cli("exact", "per", "--input", small_matrix)
    assert proc.returncode == 0
    assert proc.stdout.startswith("per = ")


def test_exact_hafnian(tmp_path):
    path = tmp_path / "h.json"
    z = np.array([[0.0, 5.0], [5.0, 0.0]])
    path.write_text(json.dumps(matrix_to_json(from_entries(z))))
    proc = run_cli("exact", "haf", "--input", str(path), "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"]["re"] == pytest.approx(5.0)


def test_exact_tensor_kinds(tmp_path):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(tensor_to_json(np.ones((2, 2, 2)))))
    proc = run_cli("exact", "per_ell", "--input", str(cube), "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"]["re"] == pytest.approx(4.0)

    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(tensor_to_json(np.ones((4, 4)))))
    proc = run_cli("exact", "haf_ell", "--input", str(flat), "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"]["re"] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "kind, shape, work",
    [
        ("per", (5, 5), exact.multidim_permanent_work(5, 1)),
        ("haf", (6, 6), exact.hyperhafnian_work(6, 2)),
        ("per_ell", (3, 3, 3), exact.multidim_permanent_work(3, 2)),
        ("haf_ell", (6, 6, 6), exact.hyperhafnian_work(6, 3)),
    ],
)
def test_exact_json_reports_the_gated_work(tmp_path, kind, shape, work):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor_to_json(np.ones(shape))))
    proc = run_cli("exact", kind, "--input", str(path), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["work"] == work
    assert set(doc) == {"kind", "shape", "value", "elapsed_seconds", "work"}
    text = run_cli("exact", kind, "--input", str(path))
    assert text.stdout.splitlines()[0].startswith(f"{kind} = ")


def test_exact_t_override(phase_matrix):
    proc = run_cli(
        "exact", "per", "--input", phase_matrix, "--t", "0", "--format", "json"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"]["re"] == pytest.approx(math.factorial(8))


def test_exact_feasibility_exit(tmp_path):
    path = tmp_path / "big.json"
    doc = {"unit_circle": {"x": np.zeros((25, 25)).tolist(), "t": 1.0}}
    path.write_text(json.dumps(doc))
    proc = run_cli("exact", "per", "--input", str(path))
    assert proc.returncode == 3
    assert "24" in proc.stderr


@pytest.mark.parametrize(
    "kind, shape, limit",
    [
        # 7,776 entries, but (6!)^3 * 2^5 * 6 products
        ("per_ell", (6,) * 5, "tensor permanent work limit"),
        # m = 5 passes the m <= 6 cap; 4,357,594 recursion steps do not
        ("haf_ell", (20,) * 4, "tensor hafnian work limit"),
    ],
)
def test_exact_tensor_work_limit_exit(tmp_path, kind, shape, limit):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(tensor_to_json(np.zeros(shape))))
    proc = run_cli("exact", kind, "--input", str(path))
    assert proc.returncode == 3
    assert limit in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "kind, shape", [("per_ell", (7, 2, 2)), ("haf_ell", (28, 2, 2, 2))]
)
def test_exact_tensor_unequal_axes_exit(tmp_path, kind, shape):
    # a first axis beyond the caps must not turn malformed input into exit 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tensor_to_json(np.zeros(shape))))
    proc = run_cli("exact", kind, "--input", str(path))
    assert proc.returncode == 2
    assert "equal size" in proc.stderr


@pytest.mark.parametrize("k", [5, 7])
def test_exact_per_ell_one_axis_exits_2(tmp_path, k):
    # the number of axes is checked before the size cap reads the first one
    path = tmp_path / "vector.json"
    path.write_text(json.dumps(tensor_to_json(np.ones(k))))
    proc = run_cli("exact", "per_ell", "--input", str(path))
    assert proc.returncode == 2
    assert "tensor must have at least 2 axes" in proc.stderr
    assert proc.stdout == ""


def _exact_value(tmp_path, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("exact", kind, "--input", str(path), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    return complex(value["re"], value["im"])


def test_exact_caps_are_reachable(tmp_path):
    rng = np.random.default_rng(7)
    # haf(d d^T) = (n-1)!! prod(d) at the hafnian cap n = 20
    d = rng.uniform(0.5, 1.5, 20) * rng.choice([-1.0, 1.0], 20)
    value = _exact_value(tmp_path, "haf", matrix_to_json(from_entries(np.outer(d, d))))
    expected = math.prod(range(19, 0, -2)) * d.prod()
    assert abs(value - expected) <= 1e-9 * abs(expected)

    # order 3, m = 6: the 18!/(6! 3!^6) block partitions of d x d x d
    d = rng.uniform(0.5, 1.5, 18)
    t = np.multiply.outer(np.multiply.outer(d, d), d)
    value = _exact_value(tmp_path, "haf_ell", tensor_to_json(t))
    expected = math.factorial(18) / (math.factorial(6) * 6**6) * d.prod()
    assert abs(value - expected) <= 1e-9 * abs(expected)

    # k = 6 at order 3: (6!)^2 equal terms of u x v x w
    u, v, w = (rng.uniform(0.5, 1.5, 6) for _ in range(3))
    t = np.multiply.outer(np.multiply.outer(u, v), w)
    value = _exact_value(tmp_path, "per_ell", tensor_to_json(t))
    expected = math.factorial(6) ** 2 * u.prod() * v.prod() * w.prod()
    assert abs(value - expected) <= 1e-9 * abs(expected)


def test_exact_kind_mismatch_exit(tmp_path):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(tensor_to_json(np.ones((2, 2, 2)))))
    proc = run_cli("exact", "per", "--input", str(cube))
    assert proc.returncode == 2
    assert "matrix" in proc.stderr


def test_missing_and_broken_input(tmp_path):
    proc = run_cli("exact", "per", "--input", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    proc = run_cli("exact", "per", "--input", str(broken))
    assert proc.returncode == 2
    assert "JSON" in proc.stderr


@pytest.mark.parametrize(
    "doc, position",
    [
        (
            {"rows": 2, "cols": 2, "entries": [
                [{"re": 1.0, "im": 0.0}, {"re": float("nan"), "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            ]},
            "entries[0][1]",
        ),
        (
            {"unit_circle": {"x": [[0.0, 1.0], [float("inf"), 0.0]], "t": 1.0}},
            "unit_circle.x[1][0]",
        ),
    ],
)
@pytest.mark.parametrize("command", [("bounds",), ("exact", "per")])
def test_non_finite_input_exit(tmp_path, doc, position, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(*command, "--input", str(path))
    assert proc.returncode == 2
    assert position in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_t_override_exit(phase_matrix):
    for command in (("bounds",), ("exact", "per")):
        proc = run_cli(*command, "--input", phase_matrix, "--t", "inf")
        assert proc.returncode == 2
        assert "--t" in proc.stderr


@pytest.mark.parametrize(
    "command, array",
    [(("bounds",), np.eye(2)), (("exact", "per"), np.eye(2)),
     (("exact", "haf_ell"), np.ones((3, 3, 3))), (("exact", "per_ell"), np.ones((2, 2)))],
)
def test_t_override_needs_a_unit_circle_input(tmp_path, capsys, command, array):
    path = tmp_path / "input.json"
    doc = tensor_to_json(array) if command[-1].endswith("_ell") else matrix_to_json(
        from_entries(array)
    )
    path.write_text(json.dumps(doc))
    assert cli.main([*command, "--input", str(path), "--t", "0.5"]) == 2
    assert "--t override requires the unit_circle form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"shape": [-1], "entries": []}, "shape[0]"),
        ({"shape": [10**6] * 3, "entries": []}, "shape [1000000, 1000000, 1000000]"),
        ({"shape": [2.5], "entries": []}, "shape[0]"),
        ({"rows": 1, "cols": -1, "entries": [[]]}, "cols"),
        ({"rows": 1, "cols": 2.7, "entries": [[{"re": 1, "im": 0}] * 2]}, "cols"),
    ],
)
def test_bad_sizes_exit_2(tmp_path, capsys, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    commands = [("exact", "per_ell")]
    if "rows" in doc:
        commands.append(("bounds",))
    for command in commands:
        assert cli.main([*command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [58, 59])
def test_bounds_near_tied_spectrum(tmp_path, seed):
    # top two singular values 1e-6 apart (relative), where power iteration
    # converges slowly or not at all
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    sv = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.8, 0.1, 6)])
    z = (u * sv) @ v.conj().T
    expected = np.linalg.norm(z, 2) ** 8
    assert bounds.baseline_opnorm(z, 2) == pytest.approx(expected, rel=1e-12)
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(matrix_to_json(from_entries(z))))
    proc = run_cli("bounds", "--input", str(path), "--format", "json")
    assert proc.returncode == 0
    rows = {row["name"]: row for row in json.loads(proc.stdout)["rows"]}
    assert rows["opnorm_p2"]["raw_value"] == pytest.approx(
        expected / math.factorial(8), rel=1e-12
    )


def test_bad_partition_spec(phase_matrix):
    proc = run_cli("bounds", "--input", phase_matrix, "--partition", "1,2|x")
    assert proc.returncode == 2
    assert "char" in proc.stderr


def test_bounds_matches_benchmark_rows(phase_matrix, capsys):
    # table1 is the bounds catalogue on the fixture: the same rows, names,
    # params and bit-identical values at each of its arguments
    for t in table1.T_VALUES:
        code = cli.main([
            "bounds",
            "--input", phase_matrix,
            "--t", repr(t),
            "--partition", "1,2,3|4,5,6|7,8",
            "--composition", "3,3,2",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8
        assert doc["form"] == "unit_circle"
        assert doc["rows"] == [r.to_json() for r in table1.compute_rows(t)]
        assert [row["name"] for row in doc["rows"]] == [
            "opnorm_p1", "opnorm_pinf", "opnorm_p2",
            "singular_mean_power", "hadamard_column_norm",
            "pair_cos", "avg_cos", "krauter_rank",
            "partition_subset_avg", "composition_level_avg",
        ]
        assert all(r["dominates_exact"] for r in doc["rows"] if r["applicable"])


def test_bounds_text_and_csv(phase_matrix):
    proc = run_cli("bounds", "--input", phase_matrix)
    assert proc.returncode == 0
    assert "opnorm_p1" in proc.stdout
    assert "(exact" in proc.stdout
    assert "n.a." in proc.stdout  # krauter does not apply at pi/2
    proc = run_cli("bounds", "--input", phase_matrix, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "name,params,raw_value,rounded_up_6dp,"
        "applicable,dominates_exact,exact_norm"
    )
    assert len(lines) == 9  # header + 8 default rows


def test_bounds_output_file(phase_matrix, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "bounds", "--input", phase_matrix, "--format", "json",
        "--output", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["rows"]


def test_bounds_ignores_thread_variable(phase_matrix, monkeypatch):
    # rows are computed in one plain loop; no environment variable is read
    monkeypatch.delenv("PERMBOUND_THREADS", raising=False)
    argv = ("bounds", "--input", phase_matrix, "--format", "json")
    plain = run_cli(*argv)
    garbage = run_cli(*argv, env={"PERMBOUND_THREADS": "zero"})
    assert plain.returncode == garbage.returncode == 0
    assert garbage.stdout == plain.stdout


def run_main_timed(capsys, *argv):
    """Exit code, stderr and seconds of one in-process CLI run."""
    start = time.perf_counter()
    code = cli.main(list(argv))
    return code, capsys.readouterr().err, time.perf_counter() - start


@pytest.mark.parametrize(
    "n, options, limit",
    [
        # 171! overflows a double
        (171, (), "bounds limit n <= 170"),
        # about 7e12 minors of 12 x 12
        (24, ("--composition", "12,12"), "composition row work limit 200000000"),
        # one minor of 24 x 24: 2^23 * 24 = 201,326,592 products
        (24, ("--partition", ",".join(map(str, range(1, 25)))),
         "partition row work limit 200000000"),
    ],
)
def test_bounds_feasibility_exit(tmp_path, capsys, n, options, limit):
    path = tmp_path / "big.json"
    doc = {"unit_circle": {"x": np.zeros((n, n)).tolist(), "t": 1.0}}
    path.write_text(json.dumps(doc))
    code, err, seconds = run_main_timed(
        capsys, "bounds", "--input", str(path), *options
    )
    assert code == 3
    assert limit in err
    assert seconds < 1.0


def test_bounds_avg_cos_row_is_not_work_limited(tmp_path, capsys, monkeypatch):
    # the work limit refuses partition and composition rows only: with no
    # work allowed, the unit-circle rows are still computed
    monkeypatch.setattr(bounds, "BOUNDS_MAX_WORK", 0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, (20, 20))
    path = tmp_path / "phases.json"
    path.write_text(json.dumps({"unit_circle": {"x": x.tolist(), "t": 0.7}}))
    assert cli.main(["bounds", "--input", str(path), "--format", "json"]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["avg_cos"]["raw_value"] == pytest.approx(
        bounds.avg_pair_bound(np.exp(0.7j * x)), rel=1e-12
    )
    code, err, _ = run_main_timed(
        capsys, "bounds", "--input", str(path), "--composition", "1," * 19 + "1"
    )
    assert code == 3
    assert "composition row work limit 0" in err


def test_bounds_pair_rows_not_applicable_below_two_columns(tmp_path, capsys):
    # a 1 x 1 unit_circle input has no column pair: its cosine rows are n.a.
    # and every other row is reported, as for the same matrix as entries
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"unit_circle": {"x": [[0.3]], "t": 1.0}}))
    argv = ["bounds", "--input", str(path), "--theta", "--s-perm", "1"]
    assert cli.main([*argv, "--format", "json"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    na = {name for name, r in rows.items() if not r["applicable"]}
    assert na == {"pair_cos", "avg_cos", "theta_cos", "krauter_rank"}
    assert rows["opnorm_p1"]["raw_value"] == pytest.approx(1.0)
    assert rows["opnorm_p1"]["dominates_exact"] is True
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.split()[1:] == ["n.a."] for line in lines) == 4


def entries_file(tmp_path, z):
    path = tmp_path / f"entries{len(z)}.json"
    path.write_text(json.dumps(matrix_to_json(from_entries(z))))
    return str(path)


@pytest.mark.parametrize("n", [120, 150])
def test_bounds_large_unit_modulus_rows_finite(tmp_path, capsys, n):
    # n ** n / n! and the singular-value powers overflow a double here;
    # the rows are normalized in log space
    rng = np.random.default_rng(n)
    path = entries_file(tmp_path, np.exp(1j * rng.uniform(-np.pi, np.pi, (n, n))))
    assert cli.main(["bounds", "--input", path, "--format", "json"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["hadamard_column_norm"]["raw_value"] == pytest.approx(1.0, rel=1e-12)
    values = [r["raw_value"] for r in rows.values() if r["applicable"]]
    assert len(values) == 5 and all(math.isfinite(v) for v in values)
    assert cli.main(["bounds", "--input", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    shown = [line.split()[1] for line in lines if line.strip()]
    assert len(shown) == 6
    assert all(v == "n.a." or math.isfinite(float(v)) for v in shown)


def test_bounds_row_beyond_a_double_exit(tmp_path, capsys):
    # normalized opnorm_p1 is (100 c) ** 100 / 100!: about 1e305 for c = 426,
    # beyond a double for c = 1000
    path = entries_file(tmp_path, np.full((100, 100), 426.0))
    assert cli.main(["bounds", "--input", path, "--format", "json"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert 1e304 < rows["opnorm_p1"]["rounded_up_6dp"] < math.inf
    path = entries_file(tmp_path, np.full((100, 100), 1000.0))
    code, err, _ = run_main_timed(capsys, "bounds", "--input", path)
    assert code == 3
    assert "opnorm_p1 row value inf does not fit a double" in err


@pytest.mark.parametrize(
    "option, spec",
    [
        ("--partition", "|".join(f"{2 * i + 1},{2 * i + 2}" for i in range(50))),
        ("--composition", ",".join(["2"] * 50)),
    ],
    ids=["partition", "composition"],
)
def test_bounds_partition_rows_beyond_double_factorials(tmp_path, capsys, option, spec):
    # n! * 426^100 overflows a double; the rows are the normalized product
    # of roots, each block or level of two columns contributing 426^2
    path = entries_file(tmp_path, np.full((100, 100), 426.0))
    code = cli.main(["bounds", "--input", path, option, spec, "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    name = "partition_subset_avg" if option == "--partition" else "composition_level_avg"
    (row,) = [r for r in rows if r["name"] == name]
    assert row["raw_value"] == pytest.approx(426.0**100, rel=1e-12)


def test_bounds_s_perm_pairs_the_fixture_columns(phase_matrix, capsys):
    s = (1, 0, 3, 2, 5, 4, 7, 6)
    code = cli.main([
        "bounds", "--input", phase_matrix, "--s-perm", "2,1,4,3,6,5,8,7",
        "--format", "json",
    ])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    t = math.pi / 2
    assert rows["pair_cos"]["params"] == {"t": t, "s": [2, 1, 4, 3, 6, 5, 8, 7]}
    assert rows["pair_cos"]["raw_value"] == bounds.pair_bound(
        np.exp(1j * t * table1.EXPONENTS), s
    )


@pytest.mark.parametrize("option", [("--s-perm", "2,1,4,3,6,5"), ("--theta",)])
def test_bounds_unit_circle_options_need_unit_circle_input(tmp_path, capsys, option):
    z = np.random.default_rng(6).standard_normal((6, 6))
    code, err, _ = run_main_timed(
        capsys, "bounds", "--input", entries_file(tmp_path, z), *option
    )
    assert code == 2
    assert f"{option[0]} requires the unit_circle form" in err


@pytest.mark.parametrize("spec", ["x", "", "1,2,3", "1,1,2,3,4,5,6,7", "0,1,2,3,4,5,6,7"])
@pytest.mark.parametrize("form", ["unit_circle", "entries"])
def test_bounds_malformed_s_perm_exit(tmp_path, phase_matrix, capsys, spec, form):
    path = phase_matrix
    if form == "entries":
        path = entries_file(tmp_path, np.exp(0.5j * table1.EXPONENTS))
    code, err, _ = run_main_timed(capsys, "bounds", "--input", path, "--s-perm", spec)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("n", [5, 12])
def test_bounds_rows_dominate_exact(tmp_path, capsys, n):
    rng = np.random.default_rng(80 + n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = entries_file(tmp_path, z)
    assert cli.main(["bounds", "--input", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(r["dominates_exact"] for r in rows if r["applicable"])


def test_table1_text():
    proc = run_cli("table1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 34  # 33 cells + summary
    assert lines[-1].startswith("PASS (30 bound cells, 3 exact cells")
    assert all(" ok" in line for line in lines[:-1])


def test_table1_json_and_csv():
    proc = run_cli("table1", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert len(doc["cells"]) == 33
    proc = run_cli("table1", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 31  # header + 10 rows x 3 arguments


def test_verify_single_suite():
    proc = run_cli("verify", "--suite", "equality", "--trials", "3")
    assert proc.returncode == 0
    assert "suite=equality" in proc.stdout
    assert "PASS" in proc.stdout


def test_verify_json():
    proc = run_cli(
        "verify", "--suite", "master", "--trials", "5", "--format", "json"
    )
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert len(results) == 1
    assert results[0]["suite"] == "master"
    assert results[0]["ok"] is True


@pytest.mark.parametrize("suite", ["convolution", "laplace"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_trials_below_one_exit(capsys, suite, trials):
    code, err, _ = run_main_timed(capsys, "verify", "--suite", suite, "--trials", trials)
    assert code == 2
    assert f"trials must be at least 1, got {trials}" in err


def test_verify_negative_seed_exit(capsys):
    code, err, _ = run_main_timed(capsys, "verify", "--seed", "-1")
    assert code == 2
    assert "seed must be non-negative, got -1" in err


def test_charfn_default_argument(model_file):
    proc = run_cli("charfn", "--input", model_file)
    assert proc.returncode == 0
    line = proc.stdout.strip()
    assert line.startswith("t=0 ")
    assert "|exact|=1.000000000" in line
    assert "pair=1.000000000" in line
    assert "avg=1.000000000" in line


def test_charfn_json_with_mc(model_file):
    proc = run_cli(
        "charfn", "--input", model_file,
        "--t", "0.7", "--t", "1.4",
        "--mc", "4000", "--seed", "5",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 2
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["exact_abs"] <= row["pair_bound"] + 1e-10
        assert row["exact_abs"] <= row["avg_bound"] + 1e-10
        mc_abs = math.hypot(row["mc_re"], row["mc_im"])
        slack = 4 * (row["mc_stderr_re"] + row["mc_stderr_im"]) + 1e-9
        assert abs(mc_abs - row["exact_abs"]) <= slack


def test_charfn_csv(model_file):
    proc = run_cli("charfn", "--input", model_file, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("t,exact_abs,pair_bound,avg_bound")
    assert len(lines) == 2


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_charfn_non_finite_t_exit(model_file, t):
    proc = run_cli("charfn", "--input", model_file, "--t", "0.5", f"--t={t}")
    assert proc.returncode == 2
    assert "'t' must be finite (at --t)" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "cell, position",
    [
        ({"family": "point_mass", "params": {"x": float("nan")}}, "cells[1][0].x"),
        (
            {"family": "normal", "params": {"mean": 0.0, "variance": float("inf")}},
            "cells[1][0].variance",
        ),
    ],
)
def test_charfn_non_finite_params_exit(tmp_path, cell, position):
    point = {"family": "point_mass", "params": {"x": 0.0}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"cells": [[point, point], [cell, point]]}))
    proc = run_cli("charfn", "--input", str(path))
    assert proc.returncode == 2
    assert position in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cells, position", [(5, "cells"), ([5], "cells[0]")])
def test_charfn_grid_not_list_of_lists_exit(tmp_path, cells, position):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"cells": cells}))
    proc = run_cli("charfn", "--input", str(path))
    assert proc.returncode == 2
    assert f"(at {position})" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_charfn_mc_limit_exit(model_file, capsys):
    # one trial over the cap for the 2 x 2 model: refused before sampling
    trials = cli.MC_MAX_DRAWS // 4 + 1
    code, err, seconds = run_main_timed(
        capsys, "charfn", "--input", model_file, "--mc", str(trials)
    )
    assert code == 3
    assert f"Monte Carlo limit trials * n^2 <= {cli.MC_MAX_DRAWS}" in err
    assert seconds < 1.0


def test_charfn_negative_seed_exit(model_file, capsys):
    code, err, _ = run_main_timed(
        capsys, "charfn", "--input", model_file, "--mc", "100", "--seed", "-1"
    )
    assert code == 2
    assert "seed must be non-negative, got -1" in err


def test_charfn_empty_s_perm_exit(model_file, capsys):
    code, err, _ = run_main_timed(capsys, "charfn", "--input", model_file, "--s-perm=")
    assert code == 2
    assert "expected an integer" in err


@pytest.mark.parametrize("s_perm", [(), ("--s-perm", "1")])
def test_charfn_one_cell_model_reports_pair_bounds_na(tmp_path, capsys, s_perm):
    # a 1 x 1 model has no column pair: exact value only, pair bounds n.a.
    path = tmp_path / "one.json"
    cell = {"family": "normal", "params": {"mean": 0.2, "variance": 0.5}}
    path.write_text(json.dumps({"cells": [[cell]]}))
    argv = ["charfn", "--input", str(path), "--t", "0.7", *s_perm]
    assert cli.main([*argv, "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["exact_abs"] == pytest.approx(math.exp(-0.5 * 0.5 * 0.7**2))
    assert row["pair_bound"] is None and row["avg_bound"] is None
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2:4] == ["", ""]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.split()[2:] == ["pair=n.a.", "avg=n.a."]


def test_charfn_bad_model(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cells": [[{"params": {"x": 1.0}}]]}))
    proc = run_cli("charfn", "--input", str(path))
    assert proc.returncode == 2
    assert "cells[0][0]" in proc.stderr
