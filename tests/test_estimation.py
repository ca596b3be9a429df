"""Count tables, slope fits, and the scale sweep."""

import math

import pytest

import polyent.estimation as estimation
from polyent import (
    BOUND_EXACT,
    BOUND_SEPARATED_LOWER,
    BOUND_SPANNING_UPPER,
    CountRecord,
    ExpHeights,
    PowerHeights,
    circle_rotation,
    count_table,
    eps_sweep,
    fit_exp_rate,
    fit_poly_slope,
    full_shift,
    make_system,
    product_system,
    spanning_witness,
    sturmian_system,
    tower_system,
    word_complexity,
)
from polyent.estimation import (
    METHOD_ANALYTIC_SEPARATED,
    METHOD_ANALYTIC_SPANNING,
    METHOD_GREEDY_SEPARATED,
    METHOD_SYMBOLIC_EXACT,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _synthetic(counts, ns, eps=0.1):
    return [CountRecord(n, eps, c, "synthetic", BOUND_EXACT)
            for n, c in zip(ns, counts)]


# ---------------------------------------------------------------------------
# count tables

def test_count_table_validations():
    system = tower_system(PowerHeights(2))
    with pytest.raises(ValueError):
        count_table(system, [4, 8], [0.1], "no-such-method")
    with pytest.raises(ValueError):
        count_table(system, [8, 4], [0.1], METHOD_ANALYTIC_SPANNING)
    with pytest.raises(ValueError):
        count_table(system, [4, 8], [0.1, 0.2], METHOD_ANALYTIC_SPANNING)
    with pytest.raises(ValueError):
        count_table(system, [], [0.1], METHOD_ANALYTIC_SPANNING)
    with pytest.raises(ValueError, match="grid"):
        count_table(system, [4, 8], [0.1], METHOD_GREEDY_SEPARATED)


def test_symbolic_counts_are_block_counts():
    system = sturmian_system(GOLDEN)
    records = count_table(system, list(range(1, 11)), [1.0], METHOD_SYMBOLIC_EXACT)
    assert [r.count for r in records] == [n + 1 for n in range(1, 11)]
    assert all(r.bound == BOUND_EXACT for r in records)


def test_symbolic_counts_widen_with_finer_scales():
    # at eps = 2^-j the window picks up j extra coordinates on each side
    system = sturmian_system(GOLDEN)
    records = count_table(system, [5, 10], [1.0, 0.5, 0.25], METHOD_SYMBOLIC_EXACT)
    by_cell = {(r.eps, r.n): r.count for r in records}
    assert by_cell[(1.0, 5)] == 6
    assert by_cell[(0.5, 5)] == 8
    assert by_cell[(0.25, 5)] == 10
    assert by_cell[(0.25, 10)] == 15


def test_symbolic_count_sees_a_late_first_one():
    # 1/(40 + golden): the first 1 of the word sits at index 40, past the
    # twelve symbols an 11 * span window used to hold
    system = sturmian_system(0.02461960616500969)
    [record] = count_table(system, [1], [1.0], METHOD_SYMBOLIC_EXACT)
    assert (record.count, record.bound) == (2, BOUND_EXACT)


def _continued(quotients):
    # [0; a_1, ..., a_k, 1, 1, ...]: the given partial quotients, then a
    # golden tail
    x = GOLDEN
    for a in reversed(quotients):
        x = 1.0 / (a + x)
    return x


@pytest.mark.parametrize("quotients", [(60,), (1, 60), (2, 60, 1, 60),
                                       (7, 1, 33, 2, 60), (60, 60, 60)])
def test_recurrence_windows_hold_every_block(quotients):
    system = sturmian_system(_continued(quotients))
    ns = list(range(1, 150)) + [997, 4001]
    records = count_table(system, ns, [1.0], METHOD_SYMBOLIC_EXACT)
    assert [r.count for r in records] == [n + 1 for n in ns]
    for n in ns:
        window = system.recurrence(n)
        longer = system.word_fn(0, 4 * window - 1)
        assert word_complexity(longer, n) == n + 1
        # a recurrence window holds every block wherever it starts
        for start in (1, 977, 123457):
            word = system.word_fn(start, start + window - 1)
            assert word_complexity(word, n) == n + 1


def test_greedy_counts_on_well_separated_shift_points():
    system = full_shift(3)
    records = count_table(system, [1, 2, 4], [0.5], METHOD_GREEDY_SEPARATED, grid=3)
    assert [r.count for r in records] == [3, 3, 3]
    assert records[0].bound == BOUND_SEPARATED_LOWER


def test_analytic_counts_match_witness_sizes():
    system = tower_system(ExpHeights())
    records = count_table(system, [10, 100], [0.2, 0.1], METHOD_ANALYTIC_SPANNING)
    for r in records:
        assert r.count == spanning_witness(r.n, r.eps, ExpHeights()).size
        assert r.bound == BOUND_SPANNING_UPPER
    assert {(r.eps, r.n) for r in records} == {(0.2, 10), (0.2, 100),
                                              (0.1, 10), (0.1, 100)}


def test_analytic_counts_multiply_over_products():
    single = tower_system(PowerHeights(2))
    prod = product_system(single, single)
    for method in (METHOD_ANALYTIC_SPANNING, METHOD_ANALYTIC_SEPARATED):
        ones = count_table(single, [100, 1000], [0.1], method)
        pairs = count_table(prod, [100, 1000], [0.1], method)
        assert [r.count for r in pairs] == [r.count ** 2 for r in ones]


def test_analytic_counts_reject_wrong_system_kinds():
    with pytest.raises(ValueError):
        count_table(sturmian_system(GOLDEN), [4, 8], [0.5], METHOD_ANALYTIC_SPANNING)
    with pytest.raises(ValueError):
        count_table(tower_system(ExpHeights()), [4, 8], [0.5],
                    METHOD_ANALYTIC_SEPARATED)


def test_greedy_tower_counts_are_monotone():
    system = tower_system(PowerHeights(2))
    records = count_table(system, [8, 16, 32], [0.2, 0.1],
                          METHOD_GREEDY_SEPARATED, grid=60)
    by_eps = {eps: [r.count for r in records if r.eps == eps] for eps in (0.2, 0.1)}
    for counts in by_eps.values():
        assert counts == sorted(counts)
    # finer scale never loses points at the same window
    for a, b in zip(by_eps[0.2], by_eps[0.1]):
        assert b >= a


# ---------------------------------------------------------------------------
# fits

def test_fit_constant_counts_give_zero_slope():
    ns = [2 ** k for k in range(4, 13)]
    fit = fit_poly_slope(_synthetic([7] * len(ns), ns), 0.1)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(7), abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_linear_counts():
    ns = [64 * 2 ** k for k in range(7)]
    fit = fit_poly_slope(_synthetic([n + 1 for n in ns], ns), 0.1)
    assert 0.98 <= fit.slope <= 1.02
    assert fit.window == (512, 4096)
    assert fit.points_used == 4


def test_fit_square_root_counts():
    ns = [2 ** k for k in range(6, 13)]
    fit = fit_poly_slope(_synthetic([math.ceil(math.sqrt(n)) for n in ns], ns), 0.1)
    assert 0.48 <= fit.slope <= 0.52


def test_fit_exponential_counts_recover_log_two():
    ns = [2 ** k for k in range(3, 10)]
    fit = fit_exp_rate(_synthetic([2 ** n for n in ns], ns), 0.1)
    assert fit.slope == pytest.approx(math.log(2.0), abs=1e-9)


def test_fit_tower_counts_have_negligible_exponential_rate():
    system = tower_system(ExpHeights())
    ns = [2 ** k for k in range(10, 25)]
    records = count_table(system, ns, [0.1], METHOD_ANALYTIC_SPANNING)
    assert fit_exp_rate(records, 0.1).slope <= 0.01


def test_fit_validations():
    ns = [16, 32, 64, 128]
    records = _synthetic([4, 5, 6, 7], ns)
    with pytest.raises(ValueError, match="at least 3"):
        fit_poly_slope(records, 0.1, tail_fraction=0.4)
    with pytest.raises(ValueError, match="tail fraction"):
        fit_poly_slope(records, 0.1, tail_fraction=0.0)
    with pytest.raises(ValueError, match="zero count"):
        fit_poly_slope(_synthetic([0, 1, 2, 3], ns), 0.1, tail_fraction=1.0)
    same_n = [CountRecord(16, 0.1, c, "synthetic", BOUND_EXACT) for c in (3, 4, 5)]
    with pytest.raises(ValueError, match="degenerate"):
        fit_poly_slope(same_n, 0.1, tail_fraction=1.0)


def test_fit_slope_is_scale_invariant():
    ns = [2 ** k for k in range(5, 12)]
    counts = [n + 3 for n in ns]
    base = fit_poly_slope(_synthetic(counts, ns), 0.1)
    scaled = fit_poly_slope(_synthetic([10 * c for c in counts], ns), 0.1)
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + math.log(10.0), abs=1e-12)


# ---------------------------------------------------------------------------
# scale sweep

def test_eps_sweep_identity_map_has_zero_headline():
    system = circle_rotation(0.0)
    ns = [2 ** k for k in range(4, 10)]
    est = eps_sweep(system, ns, [0.2, 0.1], METHOD_GREEDY_SEPARATED, grid=50)
    assert est.headline == pytest.approx(0.0, abs=1e-12)
    assert est.mode == "polynomial"
    assert set(est.per_eps) == {0.2, 0.1}


def test_eps_sweep_sturmian_headline_near_one():
    system = sturmian_system(GOLDEN)
    ns = [2 ** k for k in range(4, 11)]
    est = eps_sweep(system, ns, [1.0, 0.5, 0.25], METHOD_SYMBOLIC_EXACT)
    assert 0.95 <= est.headline <= 1.05


def test_eps_sweep_power_two_headline_near_half():
    system = make_system("tower-power:2")
    ns = [2 ** k for k in range(10, 25)]
    est = eps_sweep(system, ns, [0.2, 0.1, 0.05, 0.02], METHOD_ANALYTIC_SPANNING)
    assert 0.45 <= est.headline <= 0.55


def test_eps_sweep_product_headline_adds():
    single = tower_system(PowerHeights(2))
    prod = product_system(single, single)
    ns = [2 ** k for k in range(10, 25)]
    epss = [0.2, 0.1, 0.05, 0.02]
    one = eps_sweep(single, ns, epss, METHOD_ANALYTIC_SEPARATED)
    two = eps_sweep(prod, ns, epss, METHOD_ANALYTIC_SEPARATED)
    assert two.headline >= 2 * one.headline - 0.1


def test_eps_sweep_refuses_short_tails_before_counting(monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("counted before the tail check")

    monkeypatch.setattr(estimation, "count_table", no_counting)
    system = make_system("product:tower-power:2,tower-exp")
    with pytest.raises(ValueError, match="need at least 3 tail points at eps 0.2, have 2"):
        eps_sweep(system, [2, 4, 8, 16], [0.2], METHOD_GREEDY_SEPARATED, grid=50)


def test_eps_sweep_mode_validation():
    system = tower_system(ExpHeights())
    with pytest.raises(ValueError):
        eps_sweep(system, [16, 32, 64], [0.1], METHOD_ANALYTIC_SPANNING,
                  mode="sideways")
