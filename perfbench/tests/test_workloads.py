"""Generators, closed forms and output checks of the benchmark workloads.

Each closed form is compared against permbound's brute-force ``direct``
oracles at small sizes, so a wrong generator cannot hide a wrong kernel.
"""

import itertools
import json
import math

import numpy as np
import pytest
from permbound import table1
from permbound.exact import (
    hafnian,
    hyperhafnian,
    multidim_permanent,
    permanent,
    permanent_D,
)

import workloads as wl


def _close(got, want, rtol=1e-10):
    return abs(complex(got) - complex(want)) <= rtol * abs(want)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_permanent_d_matches_program_and_direct_oracle(n):
    for neg in range(n + 1):
        d = np.ones((n, n))
        d[np.arange(neg), np.arange(neg)] = -1.0
        assert wl.permanent_d(n, neg) == permanent_D(n, neg)
        assert _close(permanent(d, method="direct"), wl.permanent_d(n, neg))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_scaled_permanent_d_closed_form(seed):
    z, value = wl.scaled_permanent_d(seed, n=7)
    assert _close(permanent(z, method="direct"), value)


@pytest.mark.parametrize("seed", [0, 3])
def test_rank_one_hafnian_closed_form(seed):
    a, value = wl.rank_one_symmetric(seed, n=6)
    assert _close(hyperhafnian(a, method="direct"), value)
    assert _close(hafnian(a), value)


@pytest.mark.parametrize("seed", [0, 5])
def test_rank_one_tensor_permanent_closed_form(seed):
    t, value = wl.rank_one_tensor(seed, k=3)
    brute = 0j
    perms = list(itertools.permutations(range(3)))
    for s1 in perms:
        for s2 in perms:
            brute += np.prod([t[s1[j], s2[j], j] for j in range(3)])
    assert _close(brute, value)
    assert _close(multidim_permanent(t), value)


@pytest.mark.parametrize("seed", [0, 2])
def test_rank_one_tensor_hafnian_closed_form(seed):
    t, value = wl.rank_one_symmetric_tensor(seed, n=6)
    assert wl.block_partitions(6, 3) == 10
    assert _close(hyperhafnian(t, method="direct"), value)


def test_ryser_oracle_matches_direct_permanent():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert _close(wl.ryser_permanent(z), permanent(z, method="direct"))


def test_fixture_is_the_table1_matrix():
    assert np.array_equal(np.array(wl.FIXTURE_EXPONENTS), table1.EXPONENTS)


def test_generators_depend_only_on_the_seed():
    def docs(seed):
        return [json.dumps(doc) for doc in wl.build("exact_large", seed, "in").files.values()]

    assert docs(4) == docs(4)
    assert docs(4) != docs(5)


def test_workload_inputs_round_trip(tmp_path):
    w = wl.build("paper_bounds", 3, str(tmp_path))
    w.write_inputs()
    assert w.input_bytes() == sum((tmp_path / n).stat().st_size for n in ("fixture8.json", "dense10.json"))
    assert [c.name for c in w.commands] == ["table1", "bounds_fixture", "bounds_composition"]


def _exact_doc(kind, shape, value):
    return json.dumps({"kind": kind, "shape": list(shape),
                       "value": {"re": value.real, "im": value.imag}, "elapsed_seconds": 1.0})


def test_exact_check_rejects_a_wrong_value():
    check = wl.check_exact("haf", (4, 4), 3.0 + 1.0j)
    assert check(_exact_doc("haf", (4, 4), 3.0 + 1.0j)) is None
    assert "rel. err." in check(_exact_doc("haf", (4, 4), 3.0 + 1.0j + 1e-6))
    assert check(_exact_doc("per", (4, 4), 3.0 + 1.0j)) is not None
    assert check("not json") is not None


def _bounds_doc(z, names, shift=0.0):
    exact = abs(wl.ryser_permanent(z)) / math.factorial(z.shape[0])
    rows = []
    for name in names:
        rows.append({"name": name, "applicable": True, "raw_value": 2 * exact + shift,
                     "exact_norm": exact, "dominates_exact": 2 * exact + shift >= exact})
    return json.dumps({"rows": rows})


def test_bounds_check_needs_every_row_to_dominate():
    z = wl.dense_matrix(0)
    check = wl.check_bounds(z, ("a", "b"))
    assert check(_bounds_doc(z, ("a", "b"))) is None
    assert "below exact" in check(_bounds_doc(z, ("a", "b"), shift=-1.5 * abs(wl.ryser_permanent(z)) / math.factorial(10)))
    assert "rows" in check(_bounds_doc(z, ("a",)))
    wrong = json.loads(_bounds_doc(z, ("a", "b")))
    wrong["rows"][0]["exact_norm"] *= 1.01
    assert "oracle" in check(json.dumps(wrong))
    wrong["rows"][0]["exact_norm"] = float("nan")
    assert "oracle" in check(json.dumps(wrong))


def test_table1_and_verify_checks():
    cells = [{"name": "x", "t": "pi", "match": True}] * wl.TABLE1_CELLS
    check = wl.check_table1()
    assert check(json.dumps({"passed": True, "cells": cells})) is None
    cells[5] = {"name": "y", "t": "pi", "match": False}
    assert "y@pi" in check(json.dumps({"passed": False, "cells": cells}))
    suites = [{"suite": s, "ok": True, "checks": 3} for s in wl.SUITES]
    check = wl.check_verify()
    assert check(json.dumps(suites)) is None
    suites[2]["ok"] = False
    assert "dominance" in check(json.dumps(suites))
