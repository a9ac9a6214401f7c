"""Stream derivation and correlated innovation sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from breaklab.errors import SpecError
from breaklab.rng import (
    LIMIT_DRAW_STREAM_OFFSET,
    InnovCov,
    SeedSpec,
    StreamStack,
    derive_stream,
    draw_gaussian_pairs,
    limit_draw_stream,
    replication_stream,
)


def test_same_seed_same_draws():
    a = derive_stream(SeedSpec(42, 0)).standard_normal(100)
    b = derive_stream(SeedSpec(42, 0)).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ_everywhere():
    a = derive_stream(SeedSpec(42, 0)).standard_normal(100)
    b = derive_stream(SeedSpec(42, 1)).standard_normal(100)
    assert np.count_nonzero(a != b) >= 99


def test_master_seed_sensitivity():
    a = derive_stream(SeedSpec(42, 0)).standard_normal(100)
    b = derive_stream(SeedSpec(43, 0)).standard_normal(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 12345)])
def test_pairwise_stream_correlation_small(pair):
    n = 100_000
    a = derive_stream(SeedSpec(7, pair[0])).standard_normal(n)
    b = derive_stream(SeedSpec(7, pair[1])).standard_normal(n)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_limit_draw_namespace_disjoint_from_replications():
    a = replication_stream(7, 3).standard_normal(50)
    b = limit_draw_stream(7, 3).standard_normal(50)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "master,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1.5, 0)]
)
def test_seed_spec_rejects_out_of_range(master, stream):
    with pytest.raises(SpecError):
        SeedSpec(master, stream)


# ---------------------------------------------------------------------------
# innovation covariance
# ---------------------------------------------------------------------------

def test_innov_cov_rejects_negative_variance():
    with pytest.raises(SpecError):
        InnovCov(sigma_eps_sq=-0.5)
    with pytest.raises(SpecError):
        InnovCov(sigma_u_sq=-1.0)


def test_pair_sampling_rejects_zero_variance():
    # zero variances are representable (noiseless DGP configs) but cannot
    # back joint pair draws
    cov = InnovCov(sigma_eps_sq=0.0, sigma_u_sq=1.0)
    with pytest.raises(SpecError):
        draw_gaussian_pairs(derive_stream(SeedSpec(0, 0)), 10, cov)


def test_innov_cov_rejects_negative_determinant():
    with pytest.raises(SpecError):
        InnovCov(1.0, 1.0, 1.2)


def test_innov_cov_degenerate_accepted_with_zero_conditional_sd():
    cov = InnovCov(1.0, 1.0, 1.0)
    assert cov.conditional_u_var == 0.0
    factor = cov.cholesky_factor()
    assert factor[1, 1] == 0.0
    assert_allclose(factor @ factor.T, [[1.0, 1.0], [1.0, 1.0]], rtol=0, atol=0)


@pytest.mark.parametrize(
    "cov",
    [
        InnovCov(1.0, 1.0, 0.0),
        InnovCov(1.0, 1.0, 0.5),
        InnovCov(2.0, 0.5, -0.6),
        InnovCov(1.0, 1.0, -0.95),
        InnovCov(4.0, 9.0, 5.9999),
    ],
)
def test_square_root_reconstructs_covariance(cov):
    factor = cov.cholesky_factor()
    target = np.array(
        [[cov.sigma_eps_sq, cov.sigma_eps_u], [cov.sigma_eps_u, cov.sigma_u_sq]]
    )
    assert_allclose(factor @ factor.T, target, rtol=1e-12)


def test_derived_endogeneity_quantities():
    cov = InnovCov(1.0, 1.0, 0.5)
    assert cov.endogeneity_slope == 0.5
    assert cov.conditional_u_var == 0.75


# ---------------------------------------------------------------------------
# gaussian pair sampling
# ---------------------------------------------------------------------------

def test_pairs_independent_case():
    pairs = draw_gaussian_pairs(derive_stream(SeedSpec(1, 0)), 100_000, InnovCov())
    rho = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert -0.01 < rho < 0.01


def test_pairs_moderate_covariance():
    cov = InnovCov(1.0, 1.0, 0.5)
    pairs = draw_gaussian_pairs(derive_stream(SeedSpec(2, 0)), 100_000, cov)
    sample_cov = np.cov(pairs[:, 0], pairs[:, 1])[0, 1]
    assert 0.48 < sample_cov < 0.52


def test_pairs_high_negative_endogeneity():
    cov = InnovCov(1.0, 1.0, -0.95)
    pairs = draw_gaussian_pairs(derive_stream(SeedSpec(3, 0)), 100_000, cov)
    rho = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert -0.96 < rho < -0.94


def test_pairs_marginal_moments():
    cov = InnovCov(2.0, 0.5, -0.6)
    pairs = draw_gaussian_pairs(derive_stream(SeedSpec(4, 0)), 200_000, cov)
    assert_allclose(np.var(pairs[:, 0]), 2.0, rtol=0.02)
    assert_allclose(np.var(pairs[:, 1]), 0.5, rtol=0.02)
    assert_allclose(np.cov(pairs.T)[0, 1], -0.6, rtol=0.03)


# ---------------------------------------------------------------------------
# StreamStack: one re-keyed bit generator for a range of streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(7,), (2, 5)])
def test_stacked_rows_equal_each_replication_stream(shape):
    reps = range(3, 11)
    rows = replication_stream(99, reps).normal_rows(shape)
    assert rows.shape == (8, *shape)
    for row, rep in zip(rows, reps):
        assert row.tobytes() == derive_stream(SeedSpec(99, rep)).standard_normal(shape).tobytes()
        assert row.tobytes() == replication_stream(99, rep).standard_normal(shape).tobytes()


@pytest.mark.parametrize("shape", [(7,), (2, 5)])
def test_stacked_rows_equal_each_limit_draw_stream(shape):
    draws = range(3, 11)
    rows = limit_draw_stream(99, draws).normal_rows(shape)
    for row, draw in zip(rows, draws):
        stream_id = LIMIT_DRAW_STREAM_OFFSET + draw
        assert row.tobytes() == derive_stream(SeedSpec(99, stream_id)).standard_normal(shape).tobytes()
        assert row.tobytes() == limit_draw_stream(99, draw).standard_normal(shape).tobytes()


def test_stream_stack_validates_seed_and_stream_ids():
    assert StreamStack(1, range(0)).normal_rows((3,)).shape == (0, 3)
    assert StreamStack(1, range(2**64 - 2, 2**64)).normal_rows((3,)).shape == (2, 3)
    with pytest.raises(SpecError):
        StreamStack(1, range(2**64 - 2, 2**64 + 1))
    with pytest.raises(SpecError):
        limit_draw_stream(1, range(2**63 - 1, 2**63 + 1))
    with pytest.raises(SpecError):
        replication_stream(-1, range(0))
