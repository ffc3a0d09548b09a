import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparsekaczmarz import (
    SamplerConfig,
    SelectionRule,
    normalize_rows,
    residual,
    sample_subset,
    select_motzkin,
)
from sparsekaczmarz.errors import EmptySubsetError, InvalidBetaError
from sparsekaczmarz.sampling import _draw_subsets, _largest_residual, _rank_pick

from oracles import pick_index


def test_sample_subset_full_set():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_subset(5, 5, rng), np.arange(5))


def test_sample_subset_single_index():
    rng = np.random.default_rng(1)
    out = sample_subset(10, 1, rng)
    assert out.shape == (1,)
    assert 0 <= out[0] < 10


def test_sample_subset_distinct_in_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        beta = int(rng.integers(1, m + 1))
        out = sample_subset(m, beta, rng)
        assert out.shape == (beta,)
        assert len(set(out.tolist())) == beta
        assert out.min() >= 0 and out.max() < m
        assert np.all(np.diff(out) > 0)  # sorted


def test_sample_subset_rejects_bad_beta():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidBetaError):
        sample_subset(4, 0, rng)
    with pytest.raises(InvalidBetaError):
        sample_subset(4, 5, rng)


@pytest.mark.parametrize("beta", [True, 2.5, 0, 5])
def test_sampling_entry_points_refuse_a_bad_beta(beta):
    # m = 4: a bool is no count, 2.5 no integer, and 0 and 5 lie outside [1, m]
    system = normalize_rows(np.eye(4), np.ones(4))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(InvalidBetaError, match="beta"):
        sample_subset(4, beta, rng)
    with pytest.raises(InvalidBetaError, match="beta"):
        pick_index(SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=beta), system, rng, np.ones(4))
    with pytest.raises(InvalidBetaError, match="beta"):
        _draw_subsets(4, beta, rng, 8)
    # refused before a key is drawn
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("beta", [True, 2.5, 5.0, np.float64(3.0)])
def test_sampler_config_refuses_a_beta_that_is_no_integer(beta):
    for rule in SelectionRule:
        with pytest.raises(InvalidBetaError, match="beta"):
            SamplerConfig(rule=rule, beta=beta)


@pytest.mark.parametrize("rule", ["skm-greedy", "uniform", None])
def test_sampler_config_refuses_a_rule_that_is_no_selection_rule(rule):
    # the solvers test the rule by identity, so a string would run uniform rows
    with pytest.raises(ValueError, match="^rule must be a SelectionRule"):
        SamplerConfig(rule=rule, beta=10)


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, np.float64(2.0), "3"])
def test_sampler_config_refuses_a_seed_that_is_no_nonnegative_integer(seed):
    for rule in SelectionRule:
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(rule=rule, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint64(2**63)])
def test_sampler_config_accepts_integer_seeds(seed):
    assert SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM, seed=seed).seed == seed


def test_sample_subset_uniform_over_subsets():
    # all C(4,2)=6 subsets should appear with frequency 1/6 within 3 sigma
    rng = np.random.default_rng(4)
    draws = 60_000
    counts = {frozenset(s): 0 for s in itertools.combinations(range(4), 2)}
    for _ in range(draws):
        counts[frozenset(sample_subset(4, 2, rng).tolist())] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(draws * p * (1 - p))
    for count in counts.values():
        assert abs(count - draws * p) < 3 * sigma


def test_sample_subset_deterministic_given_seed():
    a = [sample_subset(20, 6, np.random.default_rng(99)).tolist() for _ in range(3)]
    b = [sample_subset(20, 6, np.random.default_rng(99)).tolist() for _ in range(3)]
    assert a == b


def test_sample_subset_ignores_buffer():
    buffer = np.arange(50)
    with_buffer = sample_subset(50, 20, np.random.default_rng(13), _buffer=buffer)
    without = sample_subset(50, 20, np.random.default_rng(13))
    assert np.array_equal(with_buffer, without)
    assert np.array_equal(buffer, np.arange(50))


class _TiedKeys:
    """A generator stand-in whose keys tie: every key is one of two values."""

    def random(self, shape):
        return np.resize([0.5, 0.25, 0.5], shape)


@pytest.mark.parametrize("beta", [1, 2, 3, 4, 6, 7])
def test_sample_subset_holds_beta_rows_when_keys_tie(beta):
    subset = sample_subset(7, beta, _TiedKeys())
    assert subset.shape == (beta,)
    assert np.all(np.diff(subset) > 0)
    # the rows keyed 0.25 come first, then the ties at 0.5
    members, low = set(subset.tolist()), {1, 4}
    assert members >= low if beta >= 2 else members < low
    assert np.array_equal(_draw_subsets(7, beta, _TiedKeys(), 3)[0], subset)


def test_sample_subset_membership_chi_square():
    # each row is in a subset with probability beta/m; the counts of a uniform
    # beta-subset have covariance N q (1 - q) m/(m - 1) (I - 11^T/m), q = beta/m,
    # so sum (c - Nq)^2 / (N q (1 - q) m/(m - 1)) is chi-square with m - 1 dof
    m, beta, draws = 23, 9, 20_000
    rng = np.random.default_rng(15)
    counts = np.zeros(m)
    for _ in range(draws):
        counts[sample_subset(m, beta, rng)] += 1
    q = beta / m
    stat = np.sum((counts - draws * q) ** 2) / (draws * q * (1 - q) * m / (m - 1))
    assert stats.chi2.sf(stat, m - 1) > 0.01


def test_pick_index_frequencies_chi_square_against_theoretical_law():
    # every beta-subset has probability 1/C(m, beta): with unit rows this is
    # the norm-weighted law. Rows 3 and 6 tie in |r| for the largest
    # residual, so row 6 is picked only without row 3
    m, beta, draws = 8, 3, 40_000
    system = normalize_rows(np.eye(m), np.zeros(m))
    x = np.array([0.3, -1.2, 0.7, 2.0, -0.1, 1.5, -2.0, 0.9])
    r = residual(system, x)
    expected = np.zeros(m)
    for tau in itertools.combinations(range(m), beta):
        pick = max(tau, key=lambda i: (r[i] ** 2, -i))
        expected[pick] += 1.0 / comb(m, beta)
    assert expected.sum() == pytest.approx(1.0, rel=1e-12)
    config = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=beta)
    rng = np.random.default_rng(16)
    counts = np.zeros(m)
    for _ in range(draws):
        counts[pick_index(config, system, rng, r)] += 1
    never = expected == 0.0  # the beta - 1 lowest-ranked rows
    assert never.sum() == beta - 1
    assert np.all(counts[never] == 0)
    assert stats.chisquare(counts[~never], draws * expected[~never]).pvalue > 0.01


@pytest.mark.parametrize("m, beta", [(300, 150), (2000, 1000), (12_000, 100), (12_000, 3000), (12_000, 12_000)])
def test_sample_subset_sorted_distinct_either_side_of_m_10000(m, beta):
    # the benchmark's sizes, and sizes on either side of m = 10000, where
    # numpy's choice switched from Floyd's algorithm to a shuffle
    out = sample_subset(m, beta, np.random.default_rng(m + beta))
    assert out.shape == (beta,)
    assert np.all(np.diff(out) > 0)
    assert out[0] >= 0 and out[-1] < m


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))), st.integers(0, 2**32 - 1))
def test_sample_subset_property(m_beta, seed):
    m, beta = m_beta
    out = sample_subset(m, beta, np.random.default_rng(seed))
    assert out.shape == (beta,)
    assert np.all(np.diff(out) > 0)
    assert out[0] >= 0 and out[-1] < m


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rank_pick_is_the_sorted_subsets_pick(data):
    """The rank scan picks what the sorted subset picks, on keys tied at the
    subset's edge and on residuals with tied maxima, and gives r^2 back. Picks
    at one r^2 may share the rows found in order of falling r^2, as a batch's
    picks do: each is still the subset's pick, and the shared order stays a
    prefix of the rows ranked by r^2, ties to the smallest index."""
    m = data.draw(st.integers(1, 40), label="m")
    beta = data.draw(st.integers(1, m), label="beta")
    # few residual values, so maxima tie
    r = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m), label="r"), dtype=float)
    r2 = r * r
    order = [] if data.draw(st.booleans(), label="shared order") else None
    for _ in range(data.draw(st.integers(1, 4), label="picks")):
        # distinct keys, the row keyed j / m at rank j
        keys = np.array(data.draw(st.permutations(range(m)), label="ranks"), dtype=float) / m
        if beta < m and data.draw(st.booleans(), label="top just out"):
            # the largest residual keyed one rank past the subset
            top, edge = int((r * r).argmax()), int(np.flatnonzero(keys == beta / m)[0])
            keys[[top, edge]] = keys[[edge, top]]
        # rows tied with the beta-th smallest key, among which argpartition chooses
        tied = data.draw(st.lists(st.integers(0, m - 1), max_size=5), label="tied")
        keys[tied] = (beta - 1) / m
        expected = _largest_residual(np.sort(np.argpartition(keys, beta - 1)[:beta]), r)
        assert _rank_pick(keys, beta, r2, r, order) == expected
        assert np.array_equal(r2, r * r)
    if order is not None:
        assert order == np.lexsort((np.arange(m), -r2))[: len(order)].tolist()


def test_select_motzkin_argmax():
    sel = select_motzkin([0, 1, 2], np.array([0.1, -3.0, 2.0]))
    assert sel.chosen == 1


def test_select_motzkin_tie_breaks_to_smallest_index():
    sel = select_motzkin([0, 1], np.array([-2.0, 2.0]))
    assert sel.chosen == 0


def test_select_motzkin_singleton():
    sel = select_motzkin([2], np.array([1.0, 5.0, 0.5]))
    assert sel.chosen == 2


def test_select_motzkin_empty_subset():
    with pytest.raises(EmptySubsetError):
        select_motzkin([], np.array([1.0]))


def test_select_motzkin_dominates_subset():
    rng = np.random.default_rng(5)
    res = rng.standard_normal(20)
    subset = sample_subset(20, 7, rng)
    sel = select_motzkin(subset, res)
    assert res[sel.chosen] ** 2 >= np.max(res[subset] ** 2)


def test_pick_index_greedy_full_subset_is_global_argmax():
    rng = np.random.default_rng(10)
    system = normalize_rows(rng.standard_normal((12, 5)), rng.standard_normal(12))
    x = rng.standard_normal(5)
    config = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=12)
    r = residual(system, x)
    assert pick_index(config, system, rng, r) == int(np.argmax(r**2))


def test_pick_index_greedy_beta_one_matches_uniform_frequencies():
    # beta=1 greedy sampling is distributionally uniform row choice
    rng = np.random.default_rng(11)
    m = 10
    system = normalize_rows(rng.standard_normal((m, 4)), rng.standard_normal(m))
    r = residual(system, rng.standard_normal(4))
    config = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=1)
    draws = 100_000
    counts = np.zeros(m, dtype=int)
    for _ in range(draws):
        counts[pick_index(config, system, rng, r)] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_pick_index_breaks_ties_like_select_motzkin():
    # rows 2, 5 and 7 tie for the largest squared residual
    system = normalize_rows(np.eye(8), np.zeros(8))
    r = np.array([0.5, -1.0, 3.0, 0.0, 2.0, -3.0, 1.0, 3.0])
    full = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=8)
    assert pick_index(full, system, np.random.default_rng(0), r) == 2
    assert select_motzkin(np.arange(8)[::-1], r).chosen == 2
    config = SamplerConfig(rule=SelectionRule.SKM_GREEDY, beta=4)
    for seed in range(200):
        i = pick_index(config, system, np.random.default_rng(seed), r)
        subset = sample_subset(8, 4, np.random.default_rng(seed))
        assert i == select_motzkin(subset, r).chosen, seed


def test_pick_index_uniform_consumes_one_integer_draw():
    system = normalize_rows(np.eye(6), np.ones(6))
    config = SamplerConfig(rule=SelectionRule.UNIFORM_RANDOM)
    rng, ref = np.random.default_rng(14), np.random.default_rng(14)
    r = residual(system, np.zeros(6))
    picks = [pick_index(config, system, rng, r) for _ in range(50)]
    assert picks == [int(ref.integers(6)) for _ in range(50)]


@pytest.mark.parametrize("m", [7, 300, 2000, 2**31 + 5])
@pytest.mark.parametrize("w", [1, 31, 32])
def test_uniform_window_draw_equals_scalar_draws(m, w):
    # run draws a window's rows with one rng.integers(m, size=w) call: the
    # same stream as one scalar draw per iteration, window after window, for
    # ranges below and above 2**32 and for odd w
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        windows = [rng.integers(m, size=w).tolist() for _ in range(3)]
        assert windows == [[int(ref.integers(m)) for _ in range(w)] for _ in range(3)], seed
