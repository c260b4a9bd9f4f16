"""Stochastic gates: sampling, expected-L0, selection policies, CSV round-trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from mmdufs.gates import (
    CONVERGED_TOL,
    SIGMA,
    GateState,
    expected_l0,
    expected_l0_grad,
    load_gates_csv,
    normal_cdf,
    save_gates_csv,
    select_features,
)
from mmdufs.tape import ContractError


class TestGateState:
    def test_zeros_factory(self):
        g = GateState.zeros(5, seed=3)
        assert g.mu.size == 5
        np.testing.assert_array_equal(g.mu, 0.0)
        np.testing.assert_array_equal(g.eval_gates(), 0.5)

    def test_eval_gates_clamped(self):
        g = GateState(mu=np.array([-2.0, -0.2, 0.0, 0.3, 3.0]))
        np.testing.assert_allclose(g.eval_gates(), [0.0, 0.3, 0.5, 0.8, 1.0])

    def test_noise_deterministic_per_seed(self):
        a = GateState.zeros(4, seed=9).draw_noise()
        b = GateState.zeros(4, seed=9).draw_noise()
        np.testing.assert_array_equal(a, b)
        c = GateState.zeros(4, seed=10).draw_noise()
        assert not np.array_equal(a, c)


def sample_gates(state: GateState) -> np.ndarray:
    """Gates as training samples them: GateState.sample, fresh noise per call."""
    return state.sample()[0]


class TestSampling:
    def test_eval_mode_is_deterministic(self):
        """Without noise the training sampler gives the evaluation gates, clamp01(0.5 + mu)."""
        g = GateState(mu=np.array([-0.7, 0.1, -0.3, 0.6]))
        z, mask = g.sample(np.zeros(4))
        np.testing.assert_array_equal(z, g.eval_gates())
        np.testing.assert_array_equal(z, [0.0, 0.6, 0.2, 1.0])
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_sample_draws_through_draw_noise(self):
        """sample() adds the next draw_noise of the gate state: the draw the benchmark times."""
        mu = np.array([-0.2, 0.0, 0.3])
        z, _ = GateState(mu=mu, seed=6).sample()
        want, _ = GateState(mu=mu).sample(GateState.zeros(3, seed=6).draw_noise())
        np.testing.assert_array_equal(z, want)

    @settings(max_examples=200, deadline=None)
    @given(gates=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1,
                          max_size=12))
    @example(gates=[(0.5, 0.0), (-0.5, 0.0), (0.25, 0.25), (-0.25, -0.25), (0.0, 0.0)])
    def test_mask_is_subgradient_of_clamp(self, gates):
        """The open mask is dz/dmu where the clamp is differentiable, and at its two kinks
        (0.5 + mu + eps = 0 or 1) the one-sided derivative toward the clamped side, 0."""
        mu, eps = (np.array(col) for col in zip(*gates))
        z, mask = GateState(mu=mu).sample(eps)
        assert mask.dtype == bool and z.min() >= 0.0 and z.max() <= 1.0
        shifted = 0.5 + (mu + eps)
        h = 1e-7
        up, down = (GateState(mu=mu + step).sample(eps)[0] for step in (h, -h))
        smooth = np.minimum(np.abs(shifted), np.abs(shifted - 1.0)) > 4 * h
        np.testing.assert_allclose(((up - down) / (2 * h))[smooth], mask[smooth], atol=1e-6)
        kink = (shifted == 0.0) | (shifted == 1.0)
        assert not mask[kink].any()
        np.testing.assert_array_equal(z[mask], shifted[mask])
        assert set(z[~mask]) <= {0.0, 1.0}

    def test_sigma_is_fixed_default(self):
        assert SIGMA == 0.5
        want = np.random.default_rng(4).normal(0.0, SIGMA, size=3)
        np.testing.assert_array_equal(GateState.zeros(3, seed=4).draw_noise(), want)

    def test_train_mode_within_bounds(self):
        g = GateState.zeros(1000, seed=0)
        z = sample_gates(g)
        assert z.min() >= 0.0 and z.max() <= 1.0
        assert 0 < np.count_nonzero(z == 0.0) and 0 < np.count_nonzero(z == 1.0)

    def test_censored_normal_statistics(self):
        """Empirical mean/variance of z match the censored-Gaussian formulas."""
        n = 200_000
        for mu in (-0.5, 0.0, 0.5):
            g = GateState(mu=np.full(n, mu), seed=17)
            z = sample_gates(g)
            m, s = 0.5 + mu, 0.5
            alpha, beta = -m / s, (1 - m) / s
            mean = (
                1.0 * (1 - ndtr(beta))
                + m * (ndtr(beta) - ndtr(alpha))
                - s * (norm.pdf(beta) - norm.pdf(alpha))
            )
            se = z.std() / np.sqrt(n)
            assert abs(z.mean() - mean) < 3 * se

    def test_open_probability(self):
        n = 100_000
        for mu in (-0.5, 0.0, 0.5):
            g = GateState(mu=np.full(n, mu), seed=23)
            z = sample_gates(g)
            p = float(ndtr((0.5 + mu) / 0.5))
            phat = np.mean(z > 0)
            se = np.sqrt(p * (1 - p) / n)
            assert abs(phat - p) < 3 * se


class TestExpectedL0:
    def test_matches_formula(self):
        mu = np.array([-1.0, -0.2, 0.0, 0.4, 2.0])
        g = GateState(mu=mu)
        assert expected_l0(g) == pytest.approx(float(ndtr((0.5 + mu) / 0.5).sum()))

    def test_matches_monte_carlo(self):
        g = GateState(mu=np.array([0.0]), seed=5)
        draws = np.clip(0.5 + np.random.default_rng(1).normal(0, 0.5, 200_000), 0, 1)
        assert expected_l0(g) == pytest.approx(np.mean(draws > 0), abs=3e-3)

    def test_grad_matches_finite_difference(self):
        """expected_l0_grad against central differences of expected_l0."""
        mu = np.array([-0.6, 0.0, 0.8])
        g = expected_l0_grad(GateState(mu=mu))
        h = 1e-6
        for i in range(3):
            up, dn = mu.copy(), mu.copy()
            up[i] += h
            dn[i] -= h
            fd = (expected_l0(GateState(mu=up)) - expected_l0(GateState(mu=dn))) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5)

    def test_grad_matches_norm_pdf(self):
        """d/dmu Phi((0.5 + mu)/SIGMA) = phi((0.5 + mu)/SIGMA)/SIGMA, with scipy's phi."""
        mu = np.concatenate([np.linspace(-12.0, 12.0, 2401), [-0.5, 0.0]])
        want = norm.pdf((0.5 + mu) / 0.5) / 0.5
        np.testing.assert_allclose(expected_l0_grad(GateState(mu=mu)), want, rtol=1e-13, atol=0)

    def test_normal_cdf_against_ndtr(self):
        """Phi on [-40, 40], with 0 and both sides of the edges at +-1/sqrt(2) and +-1."""
        edges = [s * e for s in (1.0, -1.0) for e in (2**-0.5, 1.0)]
        t = np.concatenate([
            np.linspace(-40.0, 40.0, 80_001),
            [0.0, -0.0, 5e-324, 1e-300, -1e-300],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf * np.sign(edges)),
        ])
        got = normal_cdf(t)
        assert got.shape == t.shape
        assert np.abs(got - ndtr(t)).max() <= 1e-15
        assert normal_cdf(np.array([0.0]))[0] == 0.5
        assert normal_cdf(np.array([])).shape == (0,)


class TestSelection:
    def test_converged_policy(self):
        g = GateState(mu=np.array([0.5, 0.5 - CONVERGED_TOL / 2, 0.4, -0.1]))
        assert select_features(g, "converged") == [0, 1]

    def test_policies_return_python_ints(self):
        """Selections go into JSON artifacts, which take no numpy integers."""
        g = GateState(mu=np.array([0.5, -0.2, 0.7, 0.1]))
        for policy, k in (("converged", None), ("top-k", 2)):
            chosen = select_features(g, policy, k=k)
            assert chosen and all(type(i) is int for i in chosen)
            json.dumps(chosen)

    def test_top_k_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = rng.choice([0.0, 0.25, 0.5, 0.75], size=12)
            g = GateState(mu=mu)
            k = int(rng.integers(0, 13))
            got = select_features(g, "top-k", k=k)
            # oracle: sort by (-mu, index), take first k
            oracle = sorted(sorted(range(12), key=lambda i: (-mu[i], i))[:k])
            assert got == oracle

    def test_top_k_validation(self):
        g = GateState.zeros(4)
        with pytest.raises(ContractError):
            select_features(g, "top-k", k=5)
        with pytest.raises(ContractError):
            select_features(g, "top-k")
        with pytest.raises(ContractError):
            select_features(g, "bottom-k", k=1)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        g = GateState(mu=np.array([0.123456789012345678, -1.5, 0.0, 2.0]))
        path = tmp_path / "gates.csv"
        save_gates_csv(g, path)
        back = load_gates_csv(path)
        np.testing.assert_array_equal(back.mu, g.mu)  # bit-identical via repr

    def test_headerless_file_keeps_every_gate(self, tmp_path):
        """Line 1 is data when it holds a number, so the first gate is not dropped."""
        path = tmp_path / "gates.csv"
        path.write_text("0,0.3,0.8\n1,-0.2,0.3\n2,0.1,0.6\n")
        back = load_gates_csv(path)
        np.testing.assert_array_equal(back.mu, [0.3, -0.2, 0.1])
        assert select_features(back, "top-k", k=1) == [0]

    def test_deterministic_bytes(self, tmp_path):
        g = GateState(mu=np.linspace(-1, 1, 7))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_gates_csv(g, p1)
        save_gates_csv(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
