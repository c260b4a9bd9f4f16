"""Tape primitives: values against NumPy, gradients against central finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdufs.tape import (
    ContractError,
    DimensionError,
    NumericalError,
    PRIMITIVES,
    SingularMatrixError,
    Tape,
    eigh_descending,
)

RNG = np.random.default_rng(1234)


def spd(n, rng=RNG):
    """A random symmetric positive-definite n x n matrix, well conditioned."""
    m = rng.normal(size=(n, n))
    return m @ m.T / n + np.eye(n)


def fd_grad(fn, x, h=1e-6):
    """Central finite-difference gradient of scalar fn at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def check_grad(build, x0, rtol=1e-5, atol=1e-7):
    """build(tape, leaf) -> scalar node; compares tape grad with FD."""
    tape = Tape()
    leaf = tape.leaf(x0, trainable=True)
    loss = build(tape, leaf)
    g = tape.grad(loss, leaf)

    def scalar(x):
        t = Tape()
        lf = t.leaf(x, trainable=True)
        return float(build(t, lf).value)

    np.testing.assert_allclose(g, fd_grad(scalar, x0), rtol=rtol, atol=atol)


class TestForwardValues:
    def test_matmul(self):
        a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))
        t = Tape()
        out = t.matmul(t.constant(a), t.constant(b))
        np.testing.assert_allclose(out.value, a @ b)

    def test_add_scale(self):
        a, b = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))
        t = Tape()
        na, nb = t.constant(a), t.constant(b)
        np.testing.assert_allclose(t.add(na, nb).value, a + b)
        np.testing.assert_allclose(t.scale(na, -2.5).value, -2.5 * a)

    def test_exp_transpose_trace(self):
        a = RNG.normal(size=(4, 3))
        t = Tape()
        na = t.constant(a)
        np.testing.assert_allclose(t.exp(na).value, np.exp(a))
        np.testing.assert_allclose(t.transpose(na).value, a.T)
        sq = RNG.normal(size=(3, 3))
        np.testing.assert_allclose(t.trace(t.constant(sq)).value, np.trace(sq))

    def test_sym_normalize(self):
        k = np.abs(RNG.normal(size=(5, 5))) + 0.1
        k = 0.5 * (k + k.T)
        t = Tape()
        out = t.sym_normalize(t.constant(k))
        d = k.sum(axis=1)
        expect = k / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
        np.testing.assert_allclose(out.value, expect)

    def test_inverse(self):
        a = spd(4)
        orig = a.copy()
        t = Tape()
        node = t.constant(a)
        inv = t.inverse(node).value
        np.testing.assert_allclose(inv, np.linalg.inv(orig))
        assert np.array_equal(inv, inv.T)
        # shift adds to the diagonal of a working copy: the input value is
        # unchanged and no identity matrix is recorded
        shifted = t.inverse(node, shift=0.3).value
        np.testing.assert_allclose(shifted, np.linalg.inv(orig + 0.3 * np.eye(4)))
        assert np.array_equal(node.value, orig) and len(t.nodes) == 3

    def test_hard_sigmoid(self):
        x = np.array([-2.0, -0.4, 0.0, 0.3, 0.6, 5.0])
        t = Tape()
        out = t.hard_sigmoid(t.constant(x))
        np.testing.assert_allclose(out.value, np.clip(0.5 + x, 0.0, 1.0))

    def test_col_gate(self):
        x, z = RNG.normal(size=(5, 3)), RNG.uniform(size=3)
        t = Tape()
        out = t.col_gate(t.constant(x), t.constant(z))
        np.testing.assert_allclose(out.value, x * z[None, :])

    def test_sq_dists(self):
        x = RNG.normal(size=(6, 3))
        t = Tape()
        out = t.sq_dists(t.gram(t.constant(x)))
        brute = np.array([[np.sum((xi - xj) ** 2) for xj in x] for xi in x])
        np.testing.assert_allclose(out.value, brute, atol=1e-12)
        assert np.all(np.diag(out.value) == 0.0)

    def test_open_gate_expectation(self):
        from scipy.special import ndtr

        mu = np.array([-1.0, 0.0, 0.5])
        t = Tape()
        out = t.open_gate_expectation(t.constant(mu), 0.5)
        assert out.value == pytest.approx(float(ndtr((0.5 + mu) / 0.5).sum()))


class TestGradients:
    def test_matmul(self):
        b = RNG.normal(size=(4, 3))
        check_grad(lambda t, x: t.trace(t.matmul(x, t.constant(b))), RNG.normal(size=(3, 4)))

    def test_add_scale(self):
        b = RNG.normal(size=(3, 3))
        w = RNG.normal(size=(3, 3))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.scale(t.add(x, t.constant(b)), 1.7), x)),
            RNG.normal(size=(3, 3)),
        )
        check_grad(
            lambda t, x: t.trace(t.matmul(t.add(t.constant(w), t.scale(x, -0.6)), x)),
            RNG.normal(size=(3, 3)),
        )

    def test_exp(self):
        b = RNG.normal(size=(3, 3))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.exp(x), t.constant(b))),
            0.3 * RNG.normal(size=(3, 3)),
        )

    def test_transpose(self):
        w = RNG.normal(size=(3, 3))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.matmul(t.transpose(x), t.constant(w)), x)),
            RNG.normal(size=(3, 4)),
        )

    def test_sym_normalize(self):
        k0 = np.abs(RNG.normal(size=(5, 5))) + 0.5
        k0 = 0.5 * (k0 + k0.T)
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.sym_normalize(x), t.constant(w))), k0, rtol=1e-4
        )

    def test_inverse(self):
        a0 = spd(4)
        w = RNG.normal(size=(4, 4))

        def build(t, x, shift=0.0):
            return t.trace(t.matmul(t.inverse(x, shift=shift), t.constant(w)))

        # Tape.inverse accepts symmetric input only, so finite differences go
        # through a symmetric parametrization, A = x + x^T ...
        check_grad(lambda t, x: build(t, t.add(x, t.transpose(x)), 0.2), 0.5 * a0, rtol=1e-4)
        # ... and the full rule, in every direction, is checked against
        # central differences of NumPy's general inverse.
        t = Tape()
        leaf = t.leaf(a0, trainable=True)
        g = t.grad(build(t, leaf, shift=0.2), leaf)
        fd = fd_grad(lambda a: np.trace(np.linalg.inv(a + 0.2 * np.eye(4)) @ w), a0)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_hard_sigmoid_subgradient(self):
        # strictly inside the clamp: derivative 1; outside: 0
        x = np.array([-2.0, -0.2, 0.2, 3.0])
        t = Tape()
        leaf = t.leaf(x, trainable=True)
        z = t.hard_sigmoid(leaf)
        loss = t.open_gate_expectation(z, 1.0)
        g = t.grad(loss, leaf)
        assert g[0] == 0.0 and g[3] == 0.0
        assert g[1] != 0.0 and g[2] != 0.0

    def test_col_gate_both_args(self):
        x0 = RNG.normal(size=(5, 3))
        z0 = RNG.uniform(0.2, 0.8, size=3)
        w = RNG.normal(size=(3, 5))
        check_grad(
            lambda t, z: t.trace(t.matmul(t.constant(w), t.col_gate(t.constant(x0), z))), z0
        )
        check_grad(
            lambda t, x: t.trace(t.matmul(t.constant(w), t.col_gate(x, t.constant(z0)))), x0
        )

    def test_sq_dists(self):
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.sq_dists(t.gram(x)), t.constant(w))),
            RNG.normal(size=(5, 3)),
            rtol=1e-4,
        )

    def test_sq_dists_wrt_gram(self):
        """The Gram-matrix rule on its own, at a G that is not symmetric."""
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, g: t.trace(t.matmul(t.sq_dists(g), t.constant(w))),
            RNG.normal(size=(5, 5)) + 10.0 * np.eye(5),
        )

    def test_gram(self):
        w = RNG.normal(size=(5, 5))  # not symmetric: the rule needs g + g^T
        check_grad(
            lambda t, x: t.trace(t.matmul(t.gram(x), t.constant(w))), RNG.normal(size=(5, 3))
        )

    def test_inner(self):
        a0, b0 = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
        check_grad(lambda t, a: t.scale(t.inner(a, t.constant(b0)), -0.7), a0)
        check_grad(lambda t, b: t.scale(t.inner(t.constant(a0), b), -0.7), b0)

    def test_open_gate_expectation(self):
        check_grad(
            lambda t, mu: t.open_gate_expectation(mu, 0.5), np.array([-0.6, 0.0, 0.4]), rtol=1e-5
        )

    def test_composite_kernel_pipeline(self):
        """Gradient through gate -> kernel -> normalization -> trace."""
        x0 = RNG.normal(size=(6, 3))
        z0 = RNG.uniform(0.3, 0.9, size=3)

        def build(t, z):
            gated = t.col_gate(t.constant(x0), z)
            k = t.exp(t.scale(t.sq_dists(t.gram(gated)), -0.5))
            l = t.sym_normalize(k)
            return t.trace(t.matmul(l, l))

        check_grad(build, z0, rtol=1e-4)

    def test_untouched_leaf_gets_zeros(self):
        t = Tape()
        a = t.leaf(np.ones(3), trainable=True)
        b = t.leaf(np.ones(3), trainable=True)
        loss = t.open_gate_expectation(a, 1.0)
        grads = t.backward(loss)
        assert np.all(grads[b.idx] == 0.0)
        assert np.any(grads[a.idx] != 0.0)

    def test_backward_skips_constant_subgraphs(self):
        """No VJP runs for, and no contribution flows into, a node without a
        trainable ancestor, such as the inverse of a constant."""
        a0 = spd(4)
        t = Tape()
        x = t.leaf(RNG.normal(size=(4, 4)), trainable=True)
        inv = t.inverse(t.add(t.constant(a0), t.constant(np.eye(4))))
        loss = t.trace(t.matmul(inv, t.matmul(x, inv)))
        visited, fed = [], []
        vjp = t._vjp

        def counting_vjp(node, g):
            visited.append(node)
            for inp, contrib in vjp(node, g):
                fed.append(inp)
                yield inp, contrib

        t._vjp = counting_vjp
        g = t.grad(loss, x)
        assert [node.op for node in visited] == ["trace", "matmul", "matmul"]
        assert all(node.needs_grad for node in visited + fed)
        assert not inv.needs_grad
        # d Tr(A X A) / dX = (A A)^T
        np.testing.assert_allclose(g, (inv.value @ inv.value).T, rtol=1e-12)

    def test_fanout_accumulates(self):
        x0 = RNG.normal(size=(3, 3))

        def build(t, x):
            return t.trace(t.add(t.matmul(x, x), t.scale(x, 2.0)))

        check_grad(build, x0)


def quad_trace_chain(t, a, x):
    """Tr[x^T a x] as the transpose -> matmul -> matmul -> trace chain."""
    return t.trace(t.matmul(t.transpose(x), t.matmul(a, x)))


def quad_trace_gram(t, a, x):
    """Tr[x^T a x] in Gram form: <a, x x^T>."""
    return t.inner(a, t.gram(x))


def fused_and_chain(a0, x0):
    """[(value, grad a, grad x)] of Tr[x^T a x] in Gram form, then from the chain."""
    out = []
    for build in (quad_trace_gram, quad_trace_chain):
        t = Tape()
        a, x = t.leaf(a0, trainable=True), t.leaf(x0, trainable=True)
        score = build(t, a, x)
        grads = t.backward(score)
        out.append((float(score.value), grads[a.idx], grads[x.idx]))
    return out


class TestQuadTrace:
    """Tr[x^T a x] = <a, gram(x)>, for any square a."""

    def test_value(self):
        a, x = RNG.normal(size=(5, 5)), RNG.normal(size=(5, 3))
        t = Tape()
        out = quad_trace_gram(t, t.constant(a), t.constant(x))
        assert float(out.value) == pytest.approx(np.trace(x.T @ a @ x), rel=1e-12)
        assert {"gram", "inner"} <= set(PRIMITIVES)
        assert "quad_trace" not in PRIMITIVES

    def test_fd_wrt_nonsymmetric_operator(self):
        x0 = RNG.normal(size=(4, 3))
        check_grad(
            lambda t, a: t.scale(quad_trace_gram(t, a, t.constant(x0)), -0.7),
            RNG.normal(size=(4, 4)),
        )

    def test_fd_wrt_data(self):
        a0 = RNG.normal(size=(4, 4))  # not symmetric: the rule needs both a x and a^T x
        check_grad(
            lambda t, x: t.scale(quad_trace_gram(t, t.constant(a0), x), -0.7),
            RNG.normal(size=(4, 6)),
        )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @example(n=2, d=1, seed=0)
    @example(n=3, d=8, seed=1)
    def test_matches_trace_chain(self, n, d, seed):
        rng = np.random.default_rng(seed)
        a0, x0 = rng.normal(size=(n, n)), rng.normal(size=(n, d))
        (val, ga, gx), (val_ref, ga_ref, gx_ref) = fused_and_chain(a0, x0)
        assert val == pytest.approx(val_ref, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(ga, ga_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-10, atol=1e-12)

    def test_dimension_errors(self):
        t = Tape()
        with pytest.raises(DimensionError):
            quad_trace_gram(t, t.constant(np.ones((3, 3))), t.constant(np.ones((4, 2))))
        with pytest.raises(DimensionError):
            quad_trace_gram(t, t.constant(np.ones((4, 3))), t.constant(np.ones((4, 2))))
        with pytest.raises(DimensionError):
            quad_trace_gram(t, t.constant(np.ones((4, 4))), t.constant(np.ones(4)))
        with pytest.raises(DimensionError):
            t.sq_dists(t.constant(np.ones((4, 3))))


class TestSqDistsFromGram:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 7),
        d=st.integers(1, 9),
        dup=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, d=1, dup=False, seed=0)
    @example(n=3, d=8, dup=False, seed=1)
    @example(n=5, d=2, dup=True, seed=2)
    def test_x_gradient_matches_closed_form(self, n, d, dup, seed):
        """d/dx of sq_dists(gram(x)) equals 2(rowsum(h) x - h x) with h = g + g^T,
        the rule sq_dists had when it took x itself."""
        rng = np.random.default_rng(seed)
        x0, w = rng.normal(size=(n, d)), rng.normal(size=(n, n))
        if dup:
            x0[-1] = x0[0]
        t = Tape()
        x = t.leaf(x0, trainable=True)
        d2 = t.sq_dists(t.gram(x))
        grad = t.grad(t.trace(t.matmul(d2, t.constant(w))), x)
        g = w.T  # d Tr(D W) / dD
        h = g + g.T
        np.testing.assert_allclose(
            grad, 2.0 * (h.sum(axis=1)[:, None] * x0 - h @ x0), rtol=1e-10, atol=1e-12
        )


class TestErrors:
    def test_dimension_errors(self):
        t = Tape()
        a = t.constant(np.ones((2, 3)))
        b = t.constant(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            t.matmul(a, b)
        with pytest.raises(DimensionError):
            t.trace(a)
        with pytest.raises(DimensionError):
            t.sym_normalize(a)
        with pytest.raises(DimensionError):
            t.col_gate(a, t.constant(np.ones(2)))

    def test_nonfinite_rejected(self):
        t = Tape()
        with pytest.raises(NumericalError):
            t.constant(np.array([1.0, np.nan]))
        big = t.constant(np.full((2, 2), 800.0))
        with pytest.raises(NumericalError):
            t.exp(big)  # overflow -> inf

    def test_overflow_is_a_typed_error_without_a_warning(self):
        """Primitives run under their own errstate: no caller has to set one."""
        t = Tape()
        with pytest.raises(NumericalError):
            t.exp(t.constant(800.0))

    def test_singular_inverse(self):
        t = Tape()
        with pytest.raises(SingularMatrixError):
            t.inverse(t.constant(np.zeros((3, 3))))
        # ill-conditioned but formally invertible
        a = np.diag([1.0, 1e-14])
        with pytest.raises(SingularMatrixError):
            t.inverse(t.constant(a))

    def test_inverse_rejects_non_symmetric(self):
        """A general matrix never gets the inverse of its upper triangle."""
        a = spd(4)
        a[0, 3] += 0.5
        t = Tape()
        with pytest.raises(ContractError, match="not symmetric"):
            t.inverse(t.constant(a))
        with pytest.raises(DimensionError):
            t.inverse(t.constant(np.ones((2, 3))))

    def test_inverse_rejects_indefinite(self):
        """Symmetric and invertible, but not positive definite: no Cholesky factor."""
        t = Tape()
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            t.inverse(t.constant(np.diag([2.0, -1.0, 3.0])))
        # a shift that leaves an eigenvalue negative
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            t.inverse(t.constant(np.diag([2.0, -1.0, 3.0])), shift=0.5)

    def test_inverse_rejects_ill_conditioned_spd(self):
        """Positive definite and factorizable, but past the condition limit."""
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(5, 5)))
        a = (q * np.array([1.0, 0.5, 0.1, 1e-3, 1e-14])) @ q.T
        a = 0.5 * (a + a.T)
        t = Tape()
        with pytest.raises(SingularMatrixError, match="condition estimate"):
            t.inverse(t.constant(a))
        # the same matrix shifted well away from singular is fine
        np.testing.assert_allclose(
            t.inverse(t.constant(a), shift=0.1).value, np.linalg.inv(a + 0.1 * np.eye(5))
        )

    def test_backward_contract(self):
        t = Tape()
        a = t.constant(np.ones((2, 2)))
        with pytest.raises(ContractError):
            t.backward(a)  # not scalar
        other = Tape()
        s = other.trace(other.constant(np.eye(2)))
        with pytest.raises(ContractError):
            t.backward(s)  # wrong tape

    def test_apply_dispatch(self):
        t = Tape()
        node = t.apply("scale", t.constant(np.ones(2)), 3.0)
        np.testing.assert_allclose(node.value, [3.0, 3.0])
        with pytest.raises(ContractError):
            t.apply("no_such_primitive")
        assert set(PRIMITIVES) >= {"matmul", "inverse", "sym_normalize"}

    def test_nonpositive_row_sum(self):
        t = Tape()
        with pytest.raises(ContractError):
            t.sym_normalize(t.constant(-np.eye(3)))


class TestEigh:
    def test_descending_and_reconstruction(self):
        a = RNG.normal(size=(6, 6))
        a = a + a.T
        w, v = eigh_descending(a)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            eigh_descending(np.array([[0.0, 1.0], [0.0, 0.0]]))
