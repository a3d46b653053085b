import argparse
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from permbound import bounds, charfn, cli, exact, table1, verify
from permbound.matrixio import from_entries, from_unit_circle
from oracles import f_set_fraction
from writers import matrix_to_json, tensor_to_json


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
    assert doc["work"] == work == exact.evaluate(kind, np.ones(shape))[1]
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


@pytest.mark.parametrize(
    "kind, shape",
    [
        # the first refused shape of each kind
        ("per", (25, 25)),
        ("haf", (26, 26)),
        ("per_ell", (9, 9, 9)),
        ("haf_ell", (21, 21, 21)),
        # 7,776 entries, but (6!)^3 * 2^5 * 6 products
        ("per_ell", (6,) * 5),
        # m = 5, 4,357,594 table entries
        ("haf_ell", (20,) * 4),
    ],
)
def test_exact_work_limit_exit(tmp_path, kind, shape):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(tensor_to_json(np.zeros(shape))))
    proc = run_cli("exact", kind, "--input", str(path))
    if kind.startswith("per"):
        limit = exact.PER_MAX_WORK
        work = exact.multidim_permanent_work(shape[0], len(shape) - 1)
    else:
        limit = exact.HAF_MAX_WORK
        work = exact.hyperhafnian_work(shape[0], len(shape))
    assert proc.returncode == 3
    assert f"{kind} work limit {limit} " in proc.stderr
    assert f"got {work} " in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "kind, shape",
    [
        ("per_ell", (7, 2, 2)),
        ("haf_ell", (28, 2, 2, 2)),
        ("per", (25, 26)),
        ("haf", (21, 22)),
        ("haf", (21, 21)),
    ],
)
def test_exact_tensor_unequal_axes_exit(tmp_path, kind, shape):
    # a shape error exits 2 before the work limit reads the first axis
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tensor_to_json(np.zeros(shape))))
    proc = run_cli("exact", kind, "--input", str(path))
    assert proc.returncode == 2
    unequal = len(set(shape)) > 1
    assert ("equal size" if unequal else "not a multiple of the order") in proc.stderr


@pytest.mark.parametrize("k", [5, 7])
def test_exact_per_ell_one_axis_exits_2(tmp_path, k):
    # both tensor kinds need two axes: an order-1 hyperhafnian counts n
    # table entries but builds n levels of n-wide rows
    path = tmp_path / "vector.json"
    path.write_text(json.dumps(tensor_to_json(np.ones(k))))
    for kind in ("per_ell", "haf_ell"):
        proc = run_cli("exact", kind, "--input", str(path))
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
    # haf(d d^T) = (n-1)!! prod(d) at the largest accepted n = 24
    d = rng.uniform(0.5, 1.5, 24) * rng.choice([-1.0, 1.0], 24)
    value = _exact_value(tmp_path, "haf", matrix_to_json(from_entries(np.outer(d, d))))
    expected = math.prod(range(23, 0, -2)) * d.prod()
    assert abs(value - expected) <= 1e-9 * abs(expected)

    # order 3, m = 6: the 18!/(6! 3!^6) block partitions of d x d x d
    d = rng.uniform(0.5, 1.5, 18)
    t = np.multiply.outer(np.multiply.outer(d, d), d)
    value = _exact_value(tmp_path, "haf_ell", tensor_to_json(t))
    expected = math.factorial(18) / (math.factorial(6) * 6**6) * d.prod()
    assert abs(value - expected) <= 1e-9 * abs(expected)

    # k = 8 at order 3: (8!)^2 equal terms of u x v x w
    u, v, w = (rng.uniform(0.5, 1.5, 8) for _ in range(3))
    t = np.multiply.outer(np.multiply.outer(u, v), w)
    value = _exact_value(tmp_path, "per_ell", tensor_to_json(t))
    expected = math.factorial(8) ** 2 * u.prod() * v.prod() * w.prod()
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


def test_t_override_rule_has_one_home():
    # the tensor file and the non-unit_circle matrices above exit 2 through
    # one check, matrixio.with_t
    src = pathlib.Path(cli.__file__).parent
    found = {p.name: p.read_text(encoding="utf-8").count("requires the unit_circle form")
             for p in sorted(src.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {"matrixio.py": 1}


def test_finite_t_rule_has_one_home():
    # a unit_circle file's t, --t of exact and bounds and every --t of
    # charfn exit 2 through one check, matrixio.parse_t
    src = pathlib.Path(cli.__file__).parent
    found = {p.name: p.read_text(encoding="utf-8").count("'t' must be finite")
             for p in sorted(src.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {"matrixio.py": 1}


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
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(matrix_to_json(from_entries(z))))
    proc = run_cli("bounds", "--input", str(path), "--format", "json")
    assert proc.returncode == 0
    rows = {row["name"]: row for row in json.loads(proc.stdout)["rows"]}
    assert rows["opnorm_p2"]["raw_value"] == pytest.approx(
        expected / math.factorial(8), rel=1e-12
    )


def test_ckp_row_is_the_column_norm_row_at_the_size_limit(tmp_path):
    # a plain product of 170 column mean squares of 100 overflows a double;
    # the row is prod_r sqrt(mean_j |z_jr|^2) = 1e170, the column-norm bound
    path = tmp_path / "tens.json"
    path.write_text(json.dumps(matrix_to_json(from_entries(np.full((170, 170), 10.0)))))
    proc = run_cli("bounds", "--input", str(path), "--all-baselines", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = {row["name"]: row["raw_value"] for row in json.loads(proc.stdout)["rows"]}
    assert rows["ckp_column_mean"] == rows["hadamard_column_norm"]
    assert rows["ckp_column_mean"] == pytest.approx(1e170, rel=1e-12)


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


@pytest.mark.parametrize("n, parts", [(170, (2,) * 85), (20, (4,) * 5)])
def test_row_side_compositions_pass_the_work_limit(tmp_path, capsys, n, parts):
    # the work limit prices the path that runs: these levels take the row
    # side, where the engine's 825,412,900 and 751,168,800 products were
    # refused; the row equals F_level called directly
    rng = np.random.default_rng(9)
    if n == 170:
        mi = from_unit_circle(rng.uniform(-1.0, 1.0, (n, n)), 0.7)
    else:
        mi = from_entries(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(matrix_to_json(mi)))
    composition = ",".join(map(str, parts))
    assert cli.main(["bounds", "--input", str(path), "--composition", composition,
                     "--format", "json"]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    level = bounds.F_level(mi.z, parts[0])
    want = math.prod(level ** 0.5 for _ in parts)
    assert rows["composition_level_avg"]["raw_value"] == want


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


def test_bounds_partition_dominates_with_columns_of_unequal_scale(tmp_path, capsys):
    # n = 14 has no exact column, so the exact value is computed here; blocks
    # of two columns read the row side, and the block (1, 2) pairs a column
    # with one 1e8 times smaller
    rng = np.random.default_rng(74)
    z = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    z[:, 1] *= 1e-8
    z[:, 4:7] *= [1e-3, 1.0, 1e3]
    path = entries_file(tmp_path, z)
    spec = "|".join(f"{2 * i + 1},{2 * i + 2}" for i in range(7))
    code = cli.main(["bounds", "--input", path, "--partition", spec,
                     "--composition", ",".join(["2"] * 7), "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    exact_norm = abs(exact.permanent(z)) / math.factorial(14)
    blocks = [f_set_fraction(z, (2 * i, 2 * i + 1)) for i in range(7)]
    level = sum(f_set_fraction(z, K) for K in itertools.combinations(range(14), 2)) / 91
    truths = {
        "partition_subset_avg": math.prod(math.sqrt(b) for b in blocks),
        "composition_level_avg": math.sqrt(level) ** 7,
    }
    for name, truth in truths.items():
        (row,) = [r for r in rows if r["name"] == name]
        assert row["raw_value"] == pytest.approx(truth, rel=1e-12)
        assert row["raw_value"] >= exact_norm > 0


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
    name = option[0][2:].replace("-", "_")
    assert f"{name} needs the unit_circle form, got entries" in err


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


def test_charfn_pair_bound_reads_the_averaged_level(tmp_path, capsys, monkeypatch):
    # each t's averaged bound evaluates level 2, and the pairing reads its
    # blocks there: one whole-level minor call per t
    path = tmp_path / "model6.json"
    model = verify._random_model(np.random.default_rng(3), 6)
    path.write_text(json.dumps(model.to_json()))
    calls = []
    means = bounds._minor_means

    def counted(a, k, cols):
        calls.append(cols.shape[1] == math.comb(a.shape[1], k))
        return means(a, k, cols)

    monkeypatch.setattr(bounds, "_minor_means", counted)
    argv = ["charfn", "--input", str(path), "--t", "0.4", "--t", "1.1", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [list(row) for row in rows] == [["t", "exact_abs", "pair_bound", "avg_bound"]] * 2
    assert calls == [True, True]


def test_bounds_text_prints_ceilings(tmp_path, capsys):
    # on c J for the double c = 1/d, |per| / n! is exactly c^6, and three rows
    # (column norms, partition, composition) equal it: rounded to nearest,
    # 66 of their 111 printed values were below it. Each row now prints a
    # ceiling of its double, so only a double that is itself below c^6 (by
    # 4e-16 and 1.5e-16 relative: floating-point rounding of the bound, not
    # of the print) can still print below it, where c^6 sits just above a
    # grid point
    path = tmp_path / "cj.json"
    argv = ["bounds", "--input", str(path), "--composition", "2,2,2",
            "--partition", "1,2|3,4|5,6"]
    below = []
    for d in range(3, 40):
        c = 1.0 / d
        path.write_text(json.dumps(matrix_to_json(from_entries(np.full((6, 6), c)))))
        assert cli.main([*argv, "--format", "json"]) == 0
        raw = {row["name"]: Fraction(row["raw_value"])
               for row in json.loads(capsys.readouterr().out)["rows"] if row["applicable"]}
        assert cli.main(argv) == 0
        for line in capsys.readouterr().out.splitlines():
            name, shown = line.split()[:2]
            if name in raw:
                assert Fraction(shown) >= raw[name], (d, line)
                if Fraction(shown) < Fraction(c) ** 6:
                    below.append((d, name, raw[name] < Fraction(c) ** 6))
    assert below == [(20, "hadamard_column_norm", True), (25, "partition_subset_avg", True)]


def test_charfn_text_prints_ceilings(tmp_path, capsys):
    # one bernoulli(p) cell on a 6 x 6 grid: phi(t) is c J for the double
    # c = phi_p(t), and both bounds equal |c|^6; rounded to nearest, 38 of
    # the 78 printed bounds were below it
    path = tmp_path / "bernoulli.json"
    for i in range(1, 40):
        cell = {"family": "bernoulli", "params": {"p": i / 40}}
        path.write_text(json.dumps({"cells": [[cell] * 6] * 6}))
        assert cli.main(["charfn", "--input", str(path), "--t", "1.3"]) == 0
        c = complex(charfn.load_model(path).charfn_matrix(1.3)[0, 0])
        exact = (Fraction(c.real) ** 2 + Fraction(c.imag) ** 2) ** 3
        fields = dict(f.split("=") for f in capsys.readouterr().out.split()[1:])
        for key in ("pair", "avg"):
            assert Fraction(fields[key]) >= exact, (i, key, fields[key])


def test_charfn_bad_model(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cells": [[{"params": {"x": 1.0}}]]}))
    proc = run_cli("charfn", "--input", str(path))
    assert proc.returncode == 2
    assert "cells[0][0]" in proc.stderr


def test_charfn_over_the_bounds_limit_exits_3(tmp_path, capsys, monkeypatch):
    # charfn's rows come from the bounds report, so its n limit holds: a
    # 171 x 171 model is refused before any row and any Monte Carlo draw
    def refuse(*args, **kwargs):
        raise AssertionError("work ran past the limit")

    monkeypatch.setattr(bounds, "_minor_means", refuse)
    monkeypatch.setattr(charfn, "monte_carlo_charfn", refuse)
    path = tmp_path / "big.json"
    cell = {"family": "bernoulli", "params": {"p": 0.5}}
    path.write_text(json.dumps({"cells": [[cell] * 171] * 171}))
    assert cli.main(["charfn", "--input", str(path), "--t", "0.5", "--mc", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "bounds limit n <= 170, got 171" in err


def test_charfn_computes_no_bound_itself():
    # charfn reads its exact column and pair bounds from bounds.report_rows;
    # its JSON keys are strings, not names
    import ast

    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.asname or node.name)
    own = {"EXACT_COLUMN_MAX_N", "exact_charfn", "Levels", "pair_bound", "avg_pair_bound"}
    assert read & own == set()


def test_charfn_exact_column_is_the_bounds_report(tmp_path, capsys):
    # exact_abs is, bit for bit, the exact column of the bounds report on the
    # characteristic-function matrix at t: |per| / n!, within one ulp of
    # exact_charfn's |per / n!|
    model_path = tmp_path / "model.json"
    matrix_path = tmp_path / "phi.json"
    ts = (0.3, 1.7, -4.1)
    for n in range(1, 9):
        model = verify._random_model(np.random.default_rng(n), n)
        model_path.write_text(json.dumps(model.to_json()))
        argv = ["charfn", "--input", str(model_path), "--format", "json"]
        assert cli.main([*argv, *(f"--t={t}" for t in ts)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for t, row in zip(ts, rows):
            phi = from_entries(model.charfn_matrix(t))
            matrix_path.write_text(json.dumps(matrix_to_json(phi)))
            assert cli.main(["bounds", "--input", str(matrix_path), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)["rows"]
            assert row["exact_abs"] == report[0]["exact_norm"], (n, t)
            before = abs(charfn.exact_charfn(model, t))
            assert abs(row["exact_abs"] - before) <= math.ulp(before), (n, t)


def _bounds_json(capsys, argv):
    """The JSON document of one in-process ``bounds`` run, timings dropped."""
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("elapsed_seconds", None)
    return doc


def test_main_reuses_one_parser_across_calls(phase_matrix, model_file, capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["bounds", "--input", phase_matrix, "--partition", "1,2,3|4,5,6|7,8",
            "--format", "json"]
    first = _bounds_json(capsys, argv)
    assert _bounds_json(capsys, argv) == first

    # an append option given once does not carry over to the next call
    only_p1 = _bounds_json(capsys, ["bounds", "--input", phase_matrix, "--p", "1",
                                    "--format", "json"])
    opnorms = [r["name"] for r in only_p1["rows"] if r["name"].startswith("opnorm_")]
    assert opnorms == ["opnorm_p1"]
    every_p = _bounds_json(capsys, ["bounds", "--input", phase_matrix, "--format", "json"])
    opnorms = [r["name"] for r in every_p["rows"] if r["name"].startswith("opnorm_")]
    assert opnorms == ["opnorm_p1", "opnorm_pinf", "opnorm_p2"]

    assert cli.main(["charfn", "--input", model_file, "--t", "0.7", "--t", "1.4",
                     "--format", "json"]) == 0
    assert [r["t"] for r in json.loads(capsys.readouterr().out)["rows"]] == [0.7, 1.4]
    assert cli.main(["charfn", "--input", model_file, "--format", "json"]) == 0
    assert [r["t"] for r in json.loads(capsys.readouterr().out)["rows"]] == [0.0]

    # an argparse failure between two good calls leaves the second unchanged
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--input", phase_matrix, "--p", "2", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert _bounds_json(capsys, argv) == first


def test_main_looks_up_each_handler_by_name(monkeypatch, capsys):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["bounds", "charfn", "exact", "table1", "verify"]
    for name in sub.choices:
        assert callable(getattr(cli, f"cmd_{name}"))

    assert cli.main(["table1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    seen = []
    monkeypatch.setattr(cli, "cmd_table1", lambda args: seen.append(args.format) or 7)
    assert cli.main(["table1", "--format", "json"]) == 7
    assert seen == ["json"]
    assert capsys.readouterr().out == ""
