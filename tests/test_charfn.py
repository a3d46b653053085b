import cmath
import math

import numpy as np
import pytest

from permbound import bounds
from permbound.charfn import (
    EXACT_MAX_N,
    DiagonalSumModel,
    Distribution,
    bernoulli,
    exact_charfn,
    load_model,
    monte_carlo_charfn,
    normal,
    point_mass,
    uniform,
)
from permbound.errors import DomainError, FeasibilityError, ParseError


def grid(dists):
    return DiagonalSumModel(dists)


def mixed_model(n, seed):
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(n):
        row = []
        for _ in range(n):
            pick = rng.integers(4)
            if pick == 0:
                row.append(point_mass(float(rng.normal())))
            elif pick == 1:
                row.append(bernoulli(float(rng.random())))
            elif pick == 2:
                a = float(rng.normal())
                row.append(uniform(a, a + float(rng.random()) + 0.1))
            else:
                row.append(normal(float(rng.normal()), float(rng.random())))
        cells.append(row)
    return grid(cells)


def test_char_known_values():
    t = 1.7
    assert point_mass(0.4).char(t) == pytest.approx(cmath.exp(1j * t * 0.4))
    assert bernoulli(0.0).char(t) == 1.0
    assert bernoulli(1.0).char(t) == pytest.approx(cmath.exp(1j * t))
    assert bernoulli(0.3).char(t) == pytest.approx(0.7 + 0.3 * cmath.exp(1j * t))
    assert uniform(-1.0, 1.0).char(0.0) == 1.0
    assert uniform(-1.0, 1.0).char(t) == pytest.approx(math.sin(t) / t)
    assert normal(0.5, 2.0).char(t) == pytest.approx(
        cmath.exp(1j * t * 0.5 - t * t)
    )
    assert normal(0.5, 0.0).char(t) == pytest.approx(cmath.exp(1j * t * 0.5))


def test_distribution_validation():
    with pytest.raises(DomainError):
        Distribution("cauchy", (0.0,))
    with pytest.raises(DomainError):
        bernoulli(1.5)
    with pytest.raises(DomainError):
        uniform(2.0, 1.0)
    with pytest.raises(DomainError):
        normal(0.0, -1.0)
    with pytest.raises(DomainError):
        Distribution("point_mass", (1.0, 2.0))


def test_model_validation():
    with pytest.raises(DomainError):
        grid([])
    with pytest.raises(DomainError):
        grid([[point_mass(0.0)], [point_mass(1.0)]])
    with pytest.raises(DomainError):
        grid([[point_mass(0.0), 1.0], [point_mass(1.0), point_mass(2.0)]])


def test_exact_at_zero_is_one():
    model = mixed_model(4, 1)
    assert exact_charfn(model, 0.0) == pytest.approx(1.0)


def test_exact_two_by_two():
    model = grid(
        [
            [point_mass(0.3), normal(0.0, 1.0)],
            [bernoulli(0.6), uniform(0.0, 2.0)],
        ]
    )
    t = 0.9
    phi = model.charfn_matrix(t)
    expected = (phi[0, 0] * phi[1, 1] + phi[0, 1] * phi[1, 0]) / 2.0
    assert exact_charfn(model, t) == pytest.approx(expected, rel=1e-12)


def test_identical_rows_give_column_product():
    # one row of distributions repeated: the statistic is a plain sum of
    # independent picks, so the characteristic function factorizes
    row = [bernoulli(0.4), normal(0.2, 0.5), uniform(-1.0, 0.5), point_mass(1.1)]
    model = grid([list(row) for _ in range(4)])
    for t in (0.0, 0.7, 2.3):
        expected = 1.0 + 0.0j
        for cell in row:
            expected *= cell.char(t)
        assert exact_charfn(model, t) == pytest.approx(expected, rel=1e-12)


def test_iid_grid_gives_power():
    model = grid([[normal(0.1, 0.8)] * 5 for _ in range(5)])
    t = 1.4
    assert exact_charfn(model, t) == pytest.approx(
        normal(0.1, 0.8).char(t) ** 5, rel=1e-12
    )


def test_exact_refuses_large_n():
    n = EXACT_MAX_N + 1
    model = grid([[point_mass(0.0)] * n for _ in range(n)])
    with pytest.raises(FeasibilityError):
        exact_charfn(model, 1.0)


def test_bounds_dominate_exact():
    for seed in (2, 3, 4):
        for n in (2, 3, 4, 5):
            model = mixed_model(n, seed * 10 + n)
            for t in (0.0, 0.4, 1.1, 2.8):
                value = abs(exact_charfn(model, t))
                phi = model.charfn_matrix(t)
                pair, avg = bounds.pair_bound(phi), bounds.avg_pair_bound(phi)
                assert value <= pair + 1e-10
                assert value <= avg + 1e-10
                assert -1e-12 <= pair <= 1.0 + 1e-12
                assert -1e-12 <= avg <= 1.0 + 1e-12


def test_bounds_at_zero_are_one():
    model = mixed_model(4, 5)
    assert bounds.pair_bound(model.charfn_matrix(0.0)) == pytest.approx(1.0)
    assert bounds.avg_pair_bound(model.charfn_matrix(0.0)) == pytest.approx(1.0)


def test_pair_bound_is_exact_for_n_two():
    model = grid(
        [
            [bernoulli(0.2), normal(0.0, 0.4)],
            [uniform(-0.5, 0.5), point_mass(0.9)],
        ]
    )
    for t in (0.3, 1.0, 2.5):
        assert bounds.pair_bound(model.charfn_matrix(t)) == pytest.approx(
            abs(exact_charfn(model, t)), rel=1e-12
        )


def test_pair_bound_permutation_argument():
    model = mixed_model(5, 6)
    t = 1.2
    value = abs(exact_charfn(model, t))
    for s in [(4, 2, 0, 3, 1), (1, 0, 3, 2, 4)]:
        assert bounds.pair_bound(model.charfn_matrix(t), s) >= value - 1e-10
    with pytest.raises(DomainError):
        bounds.pair_bound(model.charfn_matrix(t), (0, 1, 2, 3, 3))
    with pytest.raises(DomainError):
        bounds.pair_bound(model.charfn_matrix(t), (0, 1, 2))


def test_bounds_reject_trivial_size():
    model = grid([[point_mass(0.0)]])
    with pytest.raises(DomainError):
        bounds.pair_bound(model.charfn_matrix(1.0))
    with pytest.raises(DomainError):
        bounds.avg_pair_bound(model.charfn_matrix(1.0))


def test_point_mass_model_matches_unit_circle_bounds():
    rng = np.random.default_rng(7)
    for n in (4, 5):
        x = rng.standard_normal((n, n))
        model = grid(
            [[point_mass(float(x[j, r])) for r in range(n)] for j in range(n)]
        )
        for t in (0.6, 1.9):
            assert bounds.pair_bound(model.charfn_matrix(t)) == pytest.approx(
                bounds.pair_bound(np.exp(1j * t * x)), rel=1e-10
            )
            assert bounds.avg_pair_bound(model.charfn_matrix(t)) == pytest.approx(
                bounds.avg_pair_bound(np.exp(1j * t * x)), rel=1e-10
            )


def test_model_json_roundtrip():
    model = mixed_model(3, 8)
    doc = model.to_json()
    back = DiagonalSumModel.from_json(doc)
    assert back.n == model.n
    for row_a, row_b in zip(model.cells, back.cells):
        for a, b in zip(row_a, row_b):
            assert a.family == b.family
            assert a.params == b.params


def test_from_json_errors_carry_positions():
    with pytest.raises(ParseError):
        DiagonalSumModel.from_json({"n": 2})
    # the grid must be a list of lists
    for cells, position in ((5, "cells"), ([5], "cells[0]")):
        with pytest.raises(ParseError) as err:
            DiagonalSumModel.from_json({"cells": cells})
        assert err.value.position == position
    with pytest.raises(ParseError) as err:
        DiagonalSumModel.from_json(
            {"cells": [[{"family": "point_mass", "params": {"x": 0.0}},
                        {"params": {"x": 1.0}}]]}
        )
    assert "cells[0][1]" in str(err.value)
    with pytest.raises(ParseError) as err:
        DiagonalSumModel.from_json(
            {"cells": [[{"family": "cauchy", "params": {}}]]}
        )
    assert "cells[0][0]" in str(err.value)
    with pytest.raises(ParseError):
        DiagonalSumModel.from_json(
            {"cells": [[{"family": "uniform", "params": {"a": 2.0, "b": 1.0}}]]}
        )
    with pytest.raises(ParseError):
        DiagonalSumModel.from_json(
            {"cells": [[{"family": "normal", "params": {"mean": 0.0}}]]}
        )


@pytest.mark.parametrize(
    "family, params, name",
    [
        ("point_mass", {"x": math.nan}, "x"),
        ("bernoulli", {"p": math.nan}, "p"),
        ("uniform", {"a": -math.inf, "b": 1.0}, "a"),
        ("normal", {"mean": 0.0, "variance": math.inf}, "variance"),
        ("normal", {"mean": "nan", "variance": 1.0}, "mean"),
    ],
)
def test_from_json_rejects_non_finite_params(family, params, name):
    point = {"family": "point_mass", "params": {"x": 0.0}}
    cell = {"family": family, "params": params}
    with pytest.raises(ParseError) as err:
        DiagonalSumModel.from_json({"cells": [[point, cell], [point, point]]})
    assert f"cells[0][1].{name}" in str(err.value)


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(path)


def test_monte_carlo_matches_exact():
    model = mixed_model(3, 9)
    t = 0.8
    exact = exact_charfn(model, t)
    res = monte_carlo_charfn(model, t, trials=40_000, seed=11)
    assert abs(res.estimate.real - exact.real) <= 4 * res.stderr_re + 1e-12
    assert abs(res.estimate.imag - exact.imag) <= 4 * res.stderr_im + 1e-12
    assert res.trials == 40_000
    assert res.seed == 11


def test_monte_carlo_deterministic():
    model = mixed_model(3, 12)
    a = monte_carlo_charfn(model, 1.3, trials=5_000, seed=42)
    b = monte_carlo_charfn(model, 1.3, trials=5_000, seed=42)
    assert a.estimate == b.estimate
    assert a.stderr_re == b.stderr_re
    c = monte_carlo_charfn(model, 1.3, trials=5_000, seed=43)
    assert c.estimate != a.estimate


def test_monte_carlo_at_zero():
    model = mixed_model(2, 13)
    res = monte_carlo_charfn(model, 0.0, trials=100, seed=0)
    assert res.estimate == 1.0
    assert res.stderr_re == 0.0
    assert res.stderr_im == 0.0


def test_monte_carlo_needs_trials():
    model = mixed_model(2, 14)
    with pytest.raises(DomainError):
        monte_carlo_charfn(model, 1.0, trials=1)
