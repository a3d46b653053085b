import collections
import dataclasses
import json

import numpy as np
import pytest

from permbound import bounds, verify
from permbound.convolution import SetFunction, classify_equality
from permbound.errors import DomainError
from permbound.matrixio import matrix_from_json
from permbound.verify import SUITES, run_suite


def stripped(result):
    doc = result.to_json()
    doc.pop("elapsed_seconds", None)
    return doc


def test_registry_contents():
    assert set(SUITES) == {
        "laplace",
        "dominance",
        "equality",
        "convolution",
        "master",
        "charfn",
    }
    for fn, default_trials in SUITES.values():
        assert callable(fn)
        assert default_trials > 0


@pytest.mark.parametrize(
    "name,trials",
    [
        ("laplace", 6),
        ("dominance", 12),
        ("equality", 4),
        ("convolution", 5),
        ("master", 8),
        ("charfn", 3),
    ],
)
def test_suites_pass_at_reduced_trials(name, trials):
    result = run_suite(name, seed=3, trials=trials)
    assert result.suite == name
    assert result.seed == 3
    assert result.ok
    assert result.failures == []
    assert result.checks > 0
    # a gather that drops an (n, k, j) case, or a minor engine that skips
    # an instance, changes these counts
    pinned = {
        "laplace": 24, "dominance": 214, "equality": 20,
        "convolution": 460, "master": 28, "charfn": 8,
    }
    assert result.checks == pinned[name]
    assert result.elapsed >= 0.0


def test_default_trials_recorded():
    result = run_suite("equality", seed=0, trials=None)
    assert result.trials == SUITES["equality"][1]


def test_run_suite_deterministic():
    a = run_suite("laplace", seed=7, trials=4)
    b = run_suite("laplace", seed=7, trials=4)
    assert stripped(a) == stripped(b)
    json.dumps(a.to_json())  # result must be JSON serializable


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nonesuch")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_pass_at_default_trials(name, seed):
    # each trial records a fixed number of checks, so the counts do not
    # depend on the seed
    pinned = {
        "charfn": 15, "convolution": 11_185, "dominance": 1_404,
        "equality": 250, "laplace": 400, "master": 350,
    }
    result = run_suite(name, seed=seed)
    assert result.trials == SUITES[name][1]
    assert result.checks == pinned[name]
    assert result.ok


def test_trials_prefix_stable_within_each_family(monkeypatch):
    def drawn(trials):
        by_family = {}

        def keep(self, ok, family, index, detail):
            by_family.setdefault(family, []).append(
                (index, json.dumps(verify._jsonable(detail)))
            )

        monkeypatch.setattr(verify._Recorder, "record", keep)
        run_suite("dominance", seed=5, trials=trials)
        return by_family

    short, long = drawn(12), drawn(24)
    assert set(short) == set(long)
    assert sum(len(v) for v in short.values()) < sum(len(v) for v in long.values())
    for family, instances in short.items():
        assert instances == long[family][: len(instances)]


def test_merged_families_keep_their_order(monkeypatch):
    # one body runs the matrix and the tensor family of each check; a row
    # with the wrong order would keep every count
    orders = {}

    def keep(self, ok, family, index, detail):
        orders.setdefault(family, set()).add(detail["t"].ndim if "t" in detail else None)

    monkeypatch.setattr(verify._Recorder, "record", keep)
    for name in ("dominance", "equality", "laplace"):
        run_suite(name, seed=2, trials=12)
    expected = {
        "partition_dominance": 2, "tensor_partition_dominance": 3,
        "composition_dominance": 2, "tensor_composition_dominance": 3,
        "subhafnian_dominance": 2, "tensor_subhafnian_dominance": 3,
        "constant_offdiagonal_hafnian": 2, "constant_offdiagonal_tensor_hafnian": 3,
        "hafnian_expansion": 2, "tensor_hafnian_expansion": 3,
    }
    assert {family: orders[family] for family in expected} == {
        family: {order} for family, order in expected.items()
    }


def test_hafnian_level_checks_split_into_positive_parts(monkeypatch):
    # a composition with one nonzero part would compare G_k with itself
    parts = {}

    def keep(self, ok, family, index, detail):
        if "G_level" in detail:
            parts.setdefault(family, []).append(detail["parts"])

    monkeypatch.setattr(verify._Recorder, "record", keep)
    for name in ("dominance", "equality"):
        run_suite(name, seed=4)
    assert set(parts) == {
        "subhafnian_dominance", "tensor_subhafnian_dominance",
        "constant_offdiagonal_hafnian", "constant_offdiagonal_tensor_hafnian",
    }
    for family, drawn in parts.items():
        assert all(len(w) >= 2 and min(w) >= 1 for w in drawn), family
    assert {tuple(w) for w in parts["tensor_subhafnian_dominance"]} == {(1, 1)}


def test_level_families_evaluate_each_level_once(monkeypatch):
    # each trial tensor's F_level and G_level values are shared by its level
    # check and its bounds (evaluated per call, the two seeds took 4,040 and
    # 2,930 calls); sharing them changes no check count
    calls = collections.Counter()
    for name in ("F_level", "G_level"):
        mean = getattr(bounds, name)

        def counted(t, k, name=name, mean=mean):
            a = np.asarray(t, dtype=complex)
            calls[name, a.shape, a.tobytes(), k] += 1
            return mean(t, k)

        monkeypatch.setattr(bounds, name, counted)
    for seed in (0, 1):
        assert run_suite("dominance", seed).checks == 1404
        assert run_suite("equality", seed).checks == 250
    assert max(calls.values()) == 1
    kinds = collections.Counter(key[0] for key in calls)
    assert kinds == {"F_level": 2938, "G_level": 2313}


def test_no_minor_is_evaluated_twice(monkeypatch):
    # each trial tensor's column sets are evaluated once, as blocks or within
    # a level (with blocks evaluated per call, seed 0 repeated 398 of them
    # in dominance and 80 in equality); sharing them changes no check count
    calls = collections.Counter()
    means = bounds._minor_means

    def counted(a, k, cols):
        calls.update((a.shape, a.tobytes(), tuple(w)) for w in cols.T.tolist())
        return means(a, k, cols)

    monkeypatch.setattr(bounds, "_minor_means", counted)
    assert run_suite("dominance", 0).checks == 1404
    assert run_suite("equality", 0).checks == 250
    assert max(calls.values()) == 1


# each bound verify reads, shrunk by (1 - 1e-9) (psi_bounds one value at a
# time), and the families that must then fail at seed 0: the dominance and
# the equality family of the same bound body, and nothing else
PARTITION = {"partition_dominance", "tensor_partition_dominance", "constant_columns_partition"}
COMPOSITION = {
    "composition_dominance", "tensor_composition_dominance", "constant_matrix_composition",
}
SHRUNK_BOUNDS = {
    ("partition_bound_f", None): PARTITION,
    ("permanent_bound_partition", None): PARTITION,
    ("composition_bound_F", None): COMPOSITION,
    ("permanent_bound_composition", None): COMPOSITION,
    ("hafnian_bound", None): {
        "subhafnian_dominance", "tensor_subhafnian_dominance",
        "constant_offdiagonal_hafnian", "constant_offdiagonal_tensor_hafnian",
    },
    ("phi_bound", None): {"minor_sum_dominance"},
    ("psi_bounds", 0): {"subhafnian_sum_dominance"},
    ("psi_bounds", 1): {"subhafnian_sum_dominance"},
}


@pytest.mark.parametrize("name,which", list(SHRUNK_BOUNDS))
def test_shrunk_bound_fails_exactly_the_families_reading_it(monkeypatch, name, which):
    real = getattr(bounds, name)

    def shrunk(*args):
        value = real(*args)
        if which is None:
            return value * (1 - 1e-9)
        return tuple(v * (1 - 1e-9) if i == which else v for i, v in enumerate(value))

    monkeypatch.setattr(verify.bounds, name, shrunk)
    monkeypatch.setattr(verify, "FAILURE_CAP", 10**9)
    docs = [json.loads(json.dumps(run_suite(s, 0).to_json())) for s in ("dominance", "equality")]
    assert {f["family"] for doc in docs for f in doc["failures"]} == SHRUNK_BOUNDS[name, which]


def test_each_family_draws_its_own_stream(monkeypatch):
    # the bound-family bodies draw from the generator their caller passes,
    # so a family that reused another's key would keep every count
    keys = collections.Counter()
    real = verify._rng

    def counted(seed, family):
        keys[family] += 1
        return real(seed, family)

    monkeypatch.setattr(verify, "_rng", counted)
    for name in SUITES:
        run_suite(name, seed=0, trials=12)
    families = [*range(4), *range(10, 19), *range(20, 25), 30, 31, 40, 41, 42, 50, 51, 52]
    assert keys == dict.fromkeys(families, 1)


def test_convolution_failures_are_capped_and_replay(monkeypatch):
    real = verify.verify_convolution_inequality

    def wrong_verdict(g, h):
        check = real(g, h)
        if np.ndim(check.holds):  # every stacked row fails, constructed checks pass
            check = dataclasses.replace(check, holds=np.zeros_like(check.holds))
        return check

    monkeypatch.setattr(verify, "verify_convolution_inequality", wrong_verdict)
    result = run_suite("convolution", seed=1)
    assert result.checks == 11_185
    assert len(result.failures) == 25
    doc = json.loads(json.dumps(result.to_json()))
    for failure in doc["failures"]:
        assert failure["family"] == "random_convolution"
        assert failure["holds"] is False
        n, j, k = failure["n"], failure["j"], failure["k"]
        g = SetFunction(n, j, np.array(failure["g"]))
        h = SetFunction(n, k - j, np.array(failure["h"]))
        check = real(g, h)
        assert (check.lhs, check.rhs, check.equal) == (
            failure["lhs"], failure["rhs"], failure["equal"]
        )
        assert failure["conditions"] == list(classify_equality(g, h))


def test_laplace_failure_records_replay_bit_identical(monkeypatch):
    real = verify.permanent_via_laplace
    drawn = []

    def off_by_one(z, blocks):
        drawn.append(z)
        return real(z, blocks) + 1.0

    monkeypatch.setattr(verify, "permanent_via_laplace", off_by_one)
    result = run_suite("laplace", seed=3)
    assert len(result.failures) == 25
    doc = json.loads(json.dumps(result.to_json()))
    for failure in doc["failures"]:
        assert failure["family"] == "permanent_expansion"
        n = failure["n"]
        z = matrix_from_json({"rows": n, "cols": n, "entries": failure["z"]}).z
        assert z.tobytes() == drawn[failure["index"]].tobytes()


def test_convolution_wrong_classifier_fails(monkeypatch):
    real = verify.equality_conditions

    def drops_degenerate_level(g, h):
        flags = real(g, h).copy()
        flags[..., 0] = False
        return flags

    monkeypatch.setattr(verify, "equality_conditions", drops_degenerate_level)
    result = run_suite("convolution", seed=0)
    assert result.checks == 11_185
    assert len(result.failures) == 25
    assert {f["family"] for f in result.failures} == {"random_convolution"}
    assert all(f["equal"] and f["conditions"] == [] for f in result.failures)
