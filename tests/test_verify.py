import json

import pytest

from permbound.errors import DomainError
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
        "laplace": 24, "dominance": 212, "equality": 20,
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
