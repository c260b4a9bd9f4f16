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
    normal_cdf,
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


def pool(tape):
    """Every array the tape's pool holds: handed out, then free."""
    return [*tape._taken.values(), *(arr for arrs in tape._free.values() for arr in arrs)]


def assert_no_live_array_free(tape, grads):
    """No node value or cache, and no returned gradient, is on the free list, and no
    array is both free and handed out."""
    free = {id(arr) for arrs in tape._free.values() for arr in arrs}
    assert free.isdisjoint(tape._taken)
    live = list(grads.values())
    for node in tape.nodes:
        live += [node.value, *(node.cache if isinstance(node.cache, tuple) else (node.cache,))]
    for arr in live:
        if isinstance(arr, np.ndarray):
            assert id(arr if arr.base is None else arr.base) not in free


def check_grad(build, *x0, rtol=1e-5, atol=1e-7):
    """build(tape, *leaves) -> scalar node; compares each leaf's tape grad with FD."""
    tape = Tape()
    leaves = [tape.leaf(x, trainable=True) for x in x0]
    grads = tape.backward(build(tape, *leaves))
    assert_no_live_array_free(tape, grads)

    for i, leaf in enumerate(leaves):

        def scalar(x):
            t = Tape()
            args = [t.leaf(x if j == i else v, trainable=True) for j, v in enumerate(x0)]
            return float(build(t, *args).value)

        np.testing.assert_allclose(grads[leaf.idx], fd_grad(scalar, x0[i]), rtol=rtol, atol=atol)


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
        np.testing.assert_allclose(t.exp(na, 1.0).value, np.exp(a))
        np.testing.assert_allclose(t.exp(na, -0.4).value, np.exp(-0.4 * a))
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

    def test_normal_cdf_against_ndtr(self):
        """Phi on [-40, 40], with 0 and both sides of the edges at +-1/sqrt(2) and +-1."""
        from scipy.special import ndtr

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
        """exp(scale * x) for each sign and size of scale."""
        b = RNG.normal(size=(3, 3))
        for scale in (1.0, -0.7, 2.5):
            check_grad(
                lambda t, x: t.trace(t.matmul(t.exp(x, scale), t.constant(b))),
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
            k = t.exp(t.sq_dists(t.gram(gated)), -0.5)
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


class TestGradientBufferRecycling:
    """backward hands a spent gradient buffer out again, never one a pending gradient is or
    views, nor a node value or a gradient it returns."""

    def test_add_feeding_two_nodes_that_take_buffers(self):
        """add passes g to both inputs, whose exp and scale rules each take a buffer of g's
        shape: neither may be g's while the other rule has still to read it. Both feed x, so
        its gradient also accumulates."""
        w = RNG.normal(size=(4, 4))
        check_grad(
            lambda t, x: t.trace(t.matmul(t.add(t.scale(x, 1.5), t.exp(x, -0.4)), t.constant(w))),
            0.5 * RNG.normal(size=(4, 4)),
        )

    def test_transpose_pass_through(self):
        """transpose passes g.T, a view of g's buffer, to x; the scale rules that run after it
        take buffers of g's shape, and none may be that one while x's gradient views it."""
        w = RNG.normal(size=(4, 4))
        check_grad(
            lambda t, x, y: t.trace(t.matmul(
                t.add(t.scale(t.scale(y, 0.5), 3.0), t.transpose(x)), t.constant(w))),
            RNG.normal(size=(4, 4)),
            RNG.normal(size=(4, 4)),
        )

    def test_accumulation_into_a_trainable_leaf(self):
        """x feeds four nodes, so its gradient is summed three times, each sum in a new
        buffer while the summands' buffers go back to the free list."""
        w = RNG.normal(size=(4, 4))

        def build(t, x):
            s = t.add(t.add(t.matmul(x, x), t.scale(x, -0.7)), t.add(t.exp(x, 0.3), t.transpose(x)))
            return t.trace(t.matmul(s, t.constant(w)))

        check_grad(build, 0.5 * RNG.normal(size=(4, 4)))

    def test_a_chain_runs_in_two_gradient_buffers(self):
        """Ten scales in a row, a transpose after the fifth: each rule's input gradient is
        spent once it has run, the transpose's view with it, so the sweep alternates
        between two buffers of the chain's shape."""
        w = RNG.normal(size=(3, 3))
        t = Tape()
        x = t.leaf(RNG.normal(size=(3, 3)), trainable=True)
        node = x
        for i in range(10):
            node = t.scale(t.transpose(node) if i == 5 else node, 1.1)
        loss = t.trace(t.matmul(node, t.constant(w)))
        forward = len(pool(t))  # ten scales and the product; a transpose takes none
        grads = t.backward(loss)
        assert len(pool(t)) == forward + 2
        np.testing.assert_allclose(grads[x.idx], 1.1**10 * w, rtol=1e-13)
        assert_no_live_array_free(t, grads)

    def test_second_backward_leaves_the_first_gradients_intact(self):
        """Arrays handed out before a sweep stay out of its free list: the first sweep's
        gradient survives a second sweep and the nodes recorded between the two."""
        w = RNG.normal(size=(4, 4))
        x0 = 0.5 * RNG.normal(size=(4, 4))
        t = Tape()
        x = t.leaf(x0, trainable=True)
        first = t.backward(t.trace(t.matmul(t.exp(t.scale(x, 2.0), 0.3), t.constant(w))))
        kept = first[x.idx].copy()
        second = t.backward(
            t.scale(t.trace(t.matmul(t.scale(t.exp(x, -0.2), 1.5), t.constant(w))), 2.0)
        )
        assert np.array_equal(first[x.idx], kept)
        np.testing.assert_allclose(kept, 0.6 * np.exp(0.6 * x0) * w.T, rtol=1e-13)
        np.testing.assert_allclose(second[x.idx], -0.6 * np.exp(-0.2 * x0) * w.T, rtol=1e-13)
        assert_no_live_array_free(t, first)
        assert_no_live_array_free(t, second)


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


def quad_form_chain(t, l, w):
    """<l w, w> as inner(matmul(l, w), w), the chain that quad_form replaces."""
    return t.inner(t.matmul(l, w), w)


def symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


class TestQuadForm:
    """<l w, w> for a symmetric l, against finite differences and the matmul -> inner chain."""

    def test_fd_wrt_operator(self):
        # quad_form accepts symmetric l only, so finite differences go through l = x + x^T
        w0 = RNG.normal(size=(4, 3))
        check_grad(
            lambda t, x: t.scale(t.quad_form(t.add(x, t.transpose(x)), t.constant(w0)), -0.7),
            RNG.normal(size=(4, 4)),
        )

    def test_fd_wrt_data(self):
        l0 = symmetric(RNG, 4)
        check_grad(
            lambda t, w: t.scale(t.quad_form(t.constant(l0), w), -0.7), RNG.normal(size=(4, 6))
        )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @example(n=2, d=1, seed=0)
    @example(n=3, d=8, seed=1)
    def test_matches_matmul_inner_chain(self, n, d, seed):
        """Value and both gradients equal the chain's, at a symmetric l."""
        rng = np.random.default_rng(seed)
        l0, w0 = symmetric(rng, n), rng.normal(size=(n, d))
        out = []
        for build in (Tape.quad_form, quad_form_chain):
            t = Tape()
            l, w = t.leaf(l0, trainable=True), t.leaf(w0, trainable=True)
            score = t.scale(build(t, l, w), -0.7)
            grads = t.backward(score)
            out.append((float(score.value), grads[l.idx], grads[w.idx]))
        (val, gl, gw), (val_ref, gl_ref, gw_ref) = out
        assert val == pytest.approx(val_ref, rel=1e-12)
        # atol only for entries that cancel to near zero, where rtol alone is meaningless
        for got, want in ((gl, gl_ref), (gw, gw_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())
        assert np.array_equal(gl, gl.T)

    def test_rejects_non_symmetric(self):
        l0 = symmetric(RNG, 4)
        l0[0, 3] += 0.5
        t = Tape()
        with pytest.raises(ContractError, match="not symmetric"):
            t.quad_form(t.constant(l0), t.constant(RNG.normal(size=(4, 2))))

    def test_dimension_errors(self):
        t = Tape()
        w = t.constant(np.ones((4, 2)))
        for l in (np.ones((4, 3)), np.ones((3, 3)), np.ones(4)):
            with pytest.raises(DimensionError):
                t.quad_form(t.constant(l), w)
        with pytest.raises(DimensionError):
            t.quad_form(t.constant(np.eye(4)), t.constant(np.ones(4)))


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

    def test_takes_one_pooled_array(self):
        """The distances are built in their own output buffer, with no n x n scratch."""
        t = Tape()
        g = t.gram(t.constant(RNG.normal(size=(6, 3))))
        taken = len(t._taken)
        d2 = t.sq_dists(g)
        assert list(t._taken)[taken:] == [id(d2.value)]  # keyed by id, in order taken


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
        with pytest.raises(NumericalError, match="non-finite"):
            t.constant(np.array([1.0, np.nan]))
        big = t.constant(np.full((2, 2), 800.0))
        with pytest.raises(NumericalError):
            t.exp(big, 1.0)  # overflow -> inf

    def test_overflow_is_a_typed_error_without_a_warning(self):
        """Primitives run under their own errstate: no caller has to set one."""
        t = Tape()
        with pytest.raises(NumericalError):
            t.exp(t.constant(800.0), 1.0)

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

    def test_grad_names_a_node_that_is_not_a_trainable_leaf(self):
        t = Tape()
        mu = t.leaf(np.zeros(3), trainable=True)
        noise = t.constant(np.full(3, 0.1))
        shifted = t.add(mu, noise)
        loss = t.open_gate_expectation(shifted, 0.5)
        assert t.grad(loss, mu).shape == (3,)
        other = Tape()
        stranger = other.leaf(np.zeros(3), trainable=True)
        for node in (noise, shifted, stranger):
            msg = rf"grad: node #{node.idx} \({node.op}, shape \(3,\)\) is not a trainable leaf"
            with pytest.raises(ContractError, match=msg):
                t.grad(loss, node)

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
