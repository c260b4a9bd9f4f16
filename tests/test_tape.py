"""Tape primitives: values against NumPy, gradients against central finite differences."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memory import traced_peak
from mmdufs import tape as tape_module
from mmdufs.gates import GateState
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


def trace(t, a):
    """Tr[a] of a square node, recorded as <I, a>: the scalar reducer of these tests."""
    return t.inner(t.constant(np.eye(len(a.value))), a)


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
            assert id(arr) not in free


def assert_one_owner_each(grads):
    """No two returned gradients share memory."""
    arrays = list(grads.values())
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def check_grad(build, *x0, rtol=1e-5, atol=1e-7):
    """build(tape, *leaves) -> scalar node; compares each leaf's tape grad with FD."""
    tape = Tape()
    leaves = [tape.leaf(x, trainable=True) for x in x0]
    grads = tape.backward(build(tape, *leaves))
    assert_no_live_array_free(tape, grads)
    assert_one_owner_each(grads)

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

    def test_exp_trace(self):
        a = RNG.normal(size=(4, 3))
        t = Tape()
        na = t.constant(a)
        np.testing.assert_allclose(t.exp(na, 1.0).value, np.exp(a))
        np.testing.assert_allclose(t.exp(na, -0.4).value, np.exp(-0.4 * a))
        sq = RNG.normal(size=(3, 3))
        np.testing.assert_allclose(trace(t, t.constant(sq)).value, np.trace(sq))

    def test_hard_sigmoid(self):
        """The clamp sits before the tape: GateState.sample gives clamp01(0.5 + x), and the
        tape's gate leaf and col_gate carry that value unchanged."""
        x = np.array([-2.0, -0.4, 0.0, 0.3, 0.6, 5.0])
        z, _ = GateState(mu=x).sample(0.0)
        t = Tape()
        leaf = t.leaf(z, trainable=True)
        np.testing.assert_allclose(leaf.value, np.clip(0.5 + x, 0.0, 1.0))
        gated = t.col_gate(np.ones((2, x.size)), leaf)
        np.testing.assert_allclose(gated.value, np.tile(np.clip(0.5 + x, 0.0, 1.0), (2, 1)))

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
        inv = t.inverse(a).value
        np.testing.assert_allclose(inv, np.linalg.inv(orig))
        assert np.array_equal(inv, inv.T)
        # shift adds to the diagonal of a working copy: the input is unchanged
        # and no identity matrix is recorded
        shifted = t.inverse(a, shift=0.3).value
        np.testing.assert_allclose(shifted, np.linalg.inv(orig + 0.3 * np.eye(4)))
        assert np.array_equal(a, orig) and len(t.nodes) == 2

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 260, 1000])
    def test_inverse_matches_lapack_and_numpy(self, n):
        """Leaf-sized, one split past a leaf, and several levels of Schur complements:
        the block inverse agrees with LAPACK's potrf + potri and with numpy's LU inverse,
        is exactly symmetric and inverts a."""
        from scipy.linalg import lapack

        a = spd(n, np.random.default_rng(n))
        t = Tape()
        inv = t.inverse(a).value
        factor, info = lapack.dpotrf(a, lower=False, clean=True)
        upper, info2 = lapack.dpotri(factor, lower=False)
        assert info == info2 == 0
        potri = np.triu(upper) + np.triu(upper, 1).T
        assert np.array_equal(inv, inv.T)
        for ref in (potri, np.linalg.inv(a)):
            assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(inv @ a - np.eye(n)).max() <= 1e-13

    def test_inverse_allocates_only_leaf_blocks(self):
        """On a warm pool the inversion writes into its two pooled buffers. What else it
        makes, the leaves' blocks and the record's n x n finiteness mask (n^2 bytes), stays
        under a quarter of one n x n array, less than one half-size block of its own."""
        n = 1000
        a = spd(n)
        prev = Tape()
        prev.inverse(a)
        t = Tape(reuse=prev)
        assert traced_peak(lambda: t.inverse(a)) < n * n * 8 / 4

    def test_col_gate(self):
        x, z = RNG.normal(size=(5, 3)), RNG.uniform(size=3)
        t = Tape()
        out = t.col_gate(x, t.constant(z))
        np.testing.assert_allclose(out.value, x * z[None, :])

    def test_sq_dists(self):
        x = RNG.normal(size=(6, 3))
        t = Tape()
        out = t.sq_dists(t.gram(t.constant(x)))
        brute = np.array([[np.sum((xi - xj) ** 2) for xj in x] for xi in x])
        np.testing.assert_allclose(out.value, brute, atol=1e-12)
        assert np.all(np.diag(out.value) == 0.0)


class TestGradients:
    def test_matmul(self):
        b = RNG.normal(size=(4, 3))
        check_grad(lambda t, x: trace(t, t.matmul(x, t.constant(b))), RNG.normal(size=(3, 4)))

    def test_add_scale(self):
        b = RNG.normal(size=(3, 3))
        w = RNG.normal(size=(3, 3))
        check_grad(
            lambda t, x: trace(t, t.matmul(t.scale(t.add(x, t.constant(b)), 1.7), x)),
            RNG.normal(size=(3, 3)),
        )
        check_grad(
            lambda t, x: trace(t, t.matmul(t.add(t.constant(w), t.scale(x, -0.6)), x)),
            RNG.normal(size=(3, 3)),
        )

    def test_hard_sigmoid_subgradient(self):
        # the tape differentiates w.r.t. the sampled gates z; the clamp's mask carries that
        # gradient back to mu: strictly inside the clamp derivative 1, outside 0
        x = np.array([-2.0, -0.2, 0.2, 3.0])
        z, mask = GateState(mu=x).sample(0.0)
        w = RNG.normal(size=(x.size, 3)) + 2.0
        t = Tape()
        leaf = t.leaf(z, trainable=True)
        loss = trace(t, t.matmul(t.col_gate(np.ones((3, x.size)), leaf), t.constant(w)))
        g_z = t.grad(loss, leaf)
        np.testing.assert_allclose(g_z, w.sum(axis=1))
        g = mask * g_z
        assert g[0] == 0.0 and g[3] == 0.0
        assert g[1] != 0.0 and g[2] != 0.0

    def test_exp(self):
        """exp(scale * x) for each sign and size of scale."""
        b = RNG.normal(size=(3, 3))
        for scale in (1.0, -0.7, 2.5):
            check_grad(
                lambda t, x: trace(t, t.matmul(t.exp(x, scale), t.constant(b))),
                0.3 * RNG.normal(size=(3, 3)),
            )

    def test_sym_normalize(self):
        k0 = np.abs(RNG.normal(size=(5, 5))) + 0.5
        k0 = 0.5 * (k0 + k0.T)
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, x: trace(t, t.matmul(t.sym_normalize(x), t.constant(w))), k0, rtol=1e-4
        )

    def test_col_gate_both_args(self):
        """The gates z by finite differences; the data x is no input, so no rule reaches it."""
        x0 = RNG.normal(size=(5, 3))
        z0 = RNG.uniform(0.2, 0.8, size=3)
        w = RNG.normal(size=(3, 5))
        check_grad(lambda t, z: trace(t, t.matmul(t.constant(w), t.col_gate(x0, z))), z0)
        t = Tape()
        z = t.leaf(z0, trainable=True)
        gated = t.col_gate(x0, z)
        assert gated.inputs == (z,) and gated.cache is x0

    def test_sq_dists(self):
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, x: trace(t, t.matmul(t.sq_dists(t.gram(x)), t.constant(w))),
            RNG.normal(size=(5, 3)),
            rtol=1e-4,
        )

    def test_sq_dists_wrt_gram(self):
        """The Gram-matrix rule on its own, at a G that is not symmetric."""
        w = RNG.normal(size=(5, 5))
        check_grad(
            lambda t, g: trace(t, t.matmul(t.sq_dists(g), t.constant(w))),
            RNG.normal(size=(5, 5)) + 10.0 * np.eye(5),
        )

    def test_gram(self):
        w = RNG.normal(size=(5, 5))  # not symmetric: the rule needs g + g^T
        check_grad(
            lambda t, x: trace(t, t.matmul(t.gram(x), t.constant(w))), RNG.normal(size=(5, 3))
        )

    def test_inner(self):
        a0, b0 = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
        check_grad(lambda t, a: t.scale(t.inner(a, t.constant(b0)), -0.7), a0)
        check_grad(lambda t, b: t.scale(t.inner(t.constant(a0), b), -0.7), b0)

    def test_composite_kernel_pipeline(self):
        """Gradient through gate -> kernel -> normalization -> trace."""
        x0 = RNG.normal(size=(6, 3))
        z0 = RNG.uniform(0.3, 0.9, size=3)

        def build(t, z):
            gated = t.col_gate(x0, z)
            k = t.exp(t.sq_dists(t.gram(gated)), -0.5)
            l = t.sym_normalize(k)
            return trace(t, t.matmul(l, l))

        check_grad(build, z0, rtol=1e-4)

    def test_untouched_leaf_gets_zeros(self):
        t = Tape()
        a = t.leaf(np.ones((3, 3)), trainable=True)
        b = t.leaf(np.ones((3, 3)), trainable=True)
        loss = trace(t, t.exp(a, 0.5))
        grads = t.backward(loss)
        assert np.all(grads[b.idx] == 0.0)
        assert np.any(grads[a.idx] != 0.0)

    def test_backward_skips_constant_subgraphs(self):
        """No VJP runs for, and no contribution flows into, a node without a
        trainable ancestor, such as an inverse, which has no inputs."""
        a0 = spd(4)
        t = Tape()
        x = t.leaf(RNG.normal(size=(4, 4)), trainable=True)
        inv = t.inverse(a0 + np.eye(4))
        loss = trace(t, t.matmul(inv, t.matmul(x, inv)))
        visited, fed = [], []
        vjp = t._vjp

        def counting_vjp(node, g):
            visited.append(node)
            for inp, contrib in vjp(node, g):
                fed.append(inp)
                yield inp, contrib

        t._vjp = counting_vjp
        g = t.grad(loss, x)
        assert [node.op for node in visited] == ["inner", "matmul", "matmul"]
        assert all(node.needs_grad for node in visited + fed)
        assert not inv.needs_grad
        # d Tr(A X A) / dX = (A A)^T
        np.testing.assert_allclose(g, (inv.value @ inv.value).T, rtol=1e-12)

    def test_fanout_accumulates(self):
        x0 = RNG.normal(size=(3, 3))

        def build(t, x):
            return trace(t, t.add(t.matmul(x, x), t.scale(x, 2.0)))

        check_grad(build, x0)


class TestGradientBufferRecycling:
    """Each gradient owns its buffer: backward hands a spent one out again, never one a
    pending gradient is, nor a node value or a gradient it returns."""

    def test_add_feeding_two_nodes_that_take_buffers(self):
        """add passes g to both inputs, whose exp and scale rules each take a buffer of g's
        shape: neither may be g's while the other rule has still to read it. Both feed x, so
        its gradient also accumulates."""
        w = RNG.normal(size=(4, 4))
        check_grad(
            lambda t, x: trace(t, t.matmul(t.add(t.scale(x, 1.5), t.exp(x, -0.4)), t.constant(w))),
            0.5 * RNG.normal(size=(4, 4)),
        )

    def test_accumulation_into_a_trainable_leaf(self):
        """x feeds four nodes, so its gradient is summed three times, each sum into the
        gradient already there while the added buffer goes back to the free list."""
        w = RNG.normal(size=(4, 4))

        def build(t, x):
            s = t.add(t.add(t.matmul(x, x), t.scale(x, -0.7)), t.add(t.exp(x, 0.3), t.scale(x, 1.3)))
            return trace(t, t.matmul(s, t.constant(w)))

        check_grad(build, 0.5 * RNG.normal(size=(4, 4)))

    def test_a_chain_runs_in_two_gradient_buffers(self):
        """Ten scales in a row: each rule's input gradient is spent once it has run, so the
        sweep alternates between two buffers of the chain's shape."""
        w = RNG.normal(size=(3, 3))
        t = Tape()
        x = t.leaf(RNG.normal(size=(3, 3)), trainable=True)
        node = x
        for _ in range(10):
            node = t.scale(node, 1.1)
        loss = trace(t, t.matmul(node, t.constant(w)))
        forward = len(pool(t))  # ten scales and the product
        grads = t.backward(loss)
        assert len(pool(t)) == forward + 2
        np.testing.assert_allclose(grads[x.idx], 1.1**10 * w.T, rtol=1e-13)
        assert_no_live_array_free(t, grads)

    def test_second_backward_leaves_the_first_gradients_intact(self):
        """Arrays handed out before a sweep stay out of its free list: the first sweep's
        gradient survives a second sweep and the nodes recorded between the two."""
        w = RNG.normal(size=(4, 4))
        x0 = 0.5 * RNG.normal(size=(4, 4))
        t = Tape()
        x = t.leaf(x0, trainable=True)
        first = t.backward(trace(t, t.matmul(t.exp(t.scale(x, 2.0), 0.3), t.constant(w))))
        kept = first[x.idx].copy()
        second = t.backward(
            t.scale(trace(t, t.matmul(t.scale(t.exp(x, -0.2), 1.5), t.constant(w))), 2.0)
        )
        assert np.array_equal(first[x.idx], kept)
        np.testing.assert_allclose(kept, 0.6 * np.exp(0.6 * x0) * w.T, rtol=1e-13)
        np.testing.assert_allclose(second[x.idx], -0.6 * np.exp(-0.2 * x0) * w.T, rtol=1e-13)
        assert_no_live_array_free(t, first)
        assert_no_live_array_free(t, second)

    def test_add_of_two_leaves_returns_two_buffers(self):
        """add gives g to one input and a copy to the other: scaling one returned gradient in
        place leaves the other as it was."""
        t = Tape()
        x = t.leaf(RNG.normal(size=(3, 3)), trainable=True)
        y = t.leaf(RNG.normal(size=(3, 3)), trainable=True)
        grads = t.backward(trace(t, t.add(x, y)))
        assert not np.shares_memory(grads[x.idx], grads[y.idx])
        grads[x.idx] *= 0.5
        assert np.array_equal(grads[x.idx], 0.5 * np.eye(3))
        assert np.array_equal(grads[y.idx], np.eye(3))


def one_owner_graph(program):
    """build(tape, *leaves) for the graph program describes: each (op, i, j, p) appends
    op applied to nodes i and j (modulo the node count) to the leaves; the loss is the
    inner product of the last node with a fixed matrix."""
    w = np.random.default_rng(3).normal(size=(3, 3))

    def build(t, *leaves):
        nodes = list(leaves)
        for op, i, j, p in program:
            a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
            nodes.append({
                "add": lambda: t.add(a, b),
                "matmul": lambda: t.matmul(a, b),
                "scale": lambda: t.scale(a, p),
                "exp": lambda: t.exp(a, p / 4),
            }[op]())
        return t.inner(nodes[-1], t.constant(w))

    return build


class TestOneOwnerProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        program=st.lists(
            st.tuples(st.sampled_from(["add", "matmul", "scale", "exp"]),
                      st.integers(0, 9), st.integers(0, 9), st.floats(-1.5, 1.5)),
            min_size=1, max_size=6),
        two_leaves=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(program=[("add", 0, 0, 0.0)], two_leaves=False, seed=0)
    @example(program=[("add", 0, 1, 0.0)], two_leaves=True, seed=0)
    def test_gradients_match_fd_and_own_their_buffers(self, program, two_leaves, seed):
        """Random graphs of add (add(x, x) too), matmul, scale and exp into one or two
        trainable leaves."""
        rng = np.random.default_rng(seed)
        x0 = [rng.uniform(-0.3, 0.3, size=(3, 3)) for _ in range(1 + two_leaves)]
        build = one_owner_graph(program)
        t = Tape()
        leaves = [t.leaf(x, trainable=True) for x in x0]
        grads = t.backward(build(t, *leaves))
        assert_no_live_array_free(t, grads)
        assert_one_owner_each(grads)
        for i, leaf in enumerate(leaves):

            def scalar(x):
                tt = Tape()
                args = [tt.leaf(x if j == i else v, trainable=True) for j, v in enumerate(x0)]
                return float(build(tt, *args).value)

            fd = fd_grad(scalar, x0[i])
            scale = max(1.0, np.abs(fd).max())
            np.testing.assert_allclose(grads[leaf.idx], fd, rtol=1e-5, atol=1e-6 * scale)


def vjp_branches() -> set[str]:
    """The op names Tape._vjp tests with `op == "..."`, read from tape.py's source."""
    tree = ast.parse(Path(tape_module.__file__).read_text())
    tape_cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tape")
    vjp = next(n for n in tape_cls.body if isinstance(n, ast.FunctionDef) and n.name == "_vjp")
    return {
        node.comparators[0].value
        for node in ast.walk(vjp)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name) and node.left.id == "op"
        and isinstance(node.comparators[0], ast.Constant)
    }


# The one primitive that records no input: inverse takes its matrix as data.
INPUT_FREE = {"inverse"}


def test_every_primitive_has_a_reverse_rule():
    """A primitive with inputs added without a branch in Tape._vjp fails here, not mid-run;
    the input-free primitive has no branch."""
    assert vjp_branches() == set(PRIMITIVES) - INPUT_FREE


def test_inverse_node_has_no_inputs():
    """An inverse node records neither an input nor a cache, so no reverse rule can reach it."""
    t = Tape()
    node = t.inverse(spd(3), shift=0.1)
    assert (node.op, node.inputs, node.cache, node.needs_grad) == ("inverse", (), None, False)


def quad_chain(t, a, x):
    """Tr[x^T a x] = <a x, x> as the matmul -> inner chain."""
    return t.inner(t.matmul(a, x), x)


def quad_trace_gram(t, a, x):
    """Tr[x^T a x] in Gram form: <a, x x^T>."""
    return t.inner(a, t.gram(x))


def fused_and_chain(a0, x0):
    """[(value, grad a, grad x)] of Tr[x^T a x] in Gram form, then from the chain."""
    out = []
    for build in (quad_trace_gram, quad_chain):
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


def symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


class TestQuadForm:
    """<l w, w> for a symmetric l, against finite differences and the matmul -> inner chain."""

    def test_fd_wrt_operator(self):
        # quad_form accepts symmetric l only, so finite differences go through l = x x^T
        w0 = RNG.normal(size=(4, 3))
        check_grad(
            lambda t, x: t.scale(t.quad_form(t.gram(x), t.constant(w0)), -0.7),
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
        for build in (Tape.quad_form, quad_chain):
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
        grad = t.grad(trace(t, t.matmul(d2, t.constant(w))), x)
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
            t.sym_normalize(a)
        with pytest.raises(DimensionError):
            t.col_gate(np.ones((2, 3)), t.constant(np.ones(2)))
        with pytest.raises(DimensionError, match=r"add: \(2, 3\) vs \(3, 2\)"):
            t.add(a, t.constant(np.ones((3, 2))))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_data_of_col_gate(self, bad):
        """The data is no leaf, so nothing checks it on the way in: the gated output's check
        raises, also where a zero gate meets an infinite entry."""
        t = Tape()
        z = t.constant(np.array([0.5, 0.0]))
        for col in (0, 1):
            x = np.ones((3, 2))
            x[1, col] = bad
            with pytest.raises(NumericalError, match="'col_gate'"):
                t.col_gate(x, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_nonfinite_matrix_of_inverse(self, bad, where):
        """A non-finite matrix ends in a typed error, whichever check meets it first."""
        a = spd(70)  # past one leaf block, so the Schur complement sees it too
        i, j = (3, 3) if where == "diagonal" else (3, 60)
        a[i, j] = a[j, i] = bad
        with pytest.raises((NumericalError, SingularMatrixError)):
            Tape().inverse(a)

    def test_singular_inverse(self):
        t = Tape()
        with pytest.raises(SingularMatrixError):
            t.inverse(np.zeros((3, 3)))
        # ill-conditioned but formally invertible
        a = np.diag([1.0, 1e-14])
        with pytest.raises(SingularMatrixError):
            t.inverse(a)

    def test_inverse_rejects_non_symmetric(self):
        """A general matrix never gets the inverse of its upper triangle."""
        a = spd(4)
        a[0, 3] += 0.5
        t = Tape()
        with pytest.raises(ContractError, match="not symmetric"):
            t.inverse(a)
        with pytest.raises(DimensionError):
            t.inverse(np.ones((2, 3)))

    def test_inverse_rejects_indefinite(self):
        """Symmetric and invertible, but not positive definite: no Cholesky factor."""
        t = Tape()
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            t.inverse(np.diag([2.0, -1.0, 3.0]))
        # a shift that leaves an eigenvalue negative
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            t.inverse(np.diag([2.0, -1.0, 3.0]), shift=0.5)
        # positive definite in its leading half, indefinite in the Schur complement
        # of it: the failure comes from a block below the first split
        a = spd(100, np.random.default_rng(3))
        a[-1, -1] -= 10.0
        assert np.linalg.eigvalsh(a[:50, :50]).min() > 0 > np.linalg.eigvalsh(a).min()
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            t.inverse(a)

    def test_inverse_rejects_ill_conditioned_spd(self):
        """Positive definite and factorizable, but past the condition limit."""
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(5, 5)))
        a = (q * np.array([1.0, 0.5, 0.1, 1e-3, 1e-14])) @ q.T
        a = 0.5 * (a + a.T)
        t = Tape()
        with pytest.raises(SingularMatrixError, match="condition estimate"):
            t.inverse(a)
        # the same matrix shifted well away from singular is fine
        np.testing.assert_allclose(
            t.inverse(a, shift=0.1).value, np.linalg.inv(a + 0.1 * np.eye(5))
        )

    def test_backward_contract(self):
        t = Tape()
        a = t.constant(np.ones((2, 2)))
        with pytest.raises(ContractError):
            t.backward(a)  # not scalar
        other = Tape()
        s = trace(other, other.constant(np.eye(2)))
        with pytest.raises(ContractError):
            t.backward(s)  # wrong tape

    def test_grad_names_a_node_that_is_not_a_trainable_leaf(self):
        t = Tape()
        mu = t.leaf(np.zeros(3), trainable=True)
        noise = t.constant(np.full(3, 0.1))
        shifted = t.add(mu, noise)
        ones = np.ones((2, 3))
        loss = t.inner(t.col_gate(ones, shifted), t.constant(ones))
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


class TestSymmetryCheck:
    @pytest.mark.parametrize("n", [1, 2, 127, 129, 300])
    @pytest.mark.parametrize("upper", [True, False])
    def test_reports_max_asymmetry_bit_for_bit(self, n, upper):
        """The tiled scan reports np.abs(a - a.T).max() exactly, with one entry perturbed on
        each side of the diagonal and the larger on either side, and the check's error
        carries that value."""
        rng = np.random.default_rng(n)
        a = symmetric(rng, n)
        if n > 1:
            i, j = sorted(rng.choice(n, size=2, replace=False))  # i < j: (i, j) is above
            a[i, j] += 3e-6 if upper else 2e-6
            a[n - 1, 0] -= 2e-6 if upper else 3e-6  # below the diagonal
        want = np.abs(a - a.T).max()
        assert tape_module._max_asymmetry(a) == want
        assert (want > 0) == (n > 1)
        if n > 1:
            with pytest.raises(ContractError, match=rf"max asymmetry {want:.3e}\)"):
                tape_module._check_symmetric(a)

    def test_takes_no_array_as_large_as_a(self):
        a = symmetric(np.random.default_rng(0), 600)
        assert traced_peak(lambda: tape_module._max_asymmetry(a)) < a.nbytes / 4


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

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match="needs a square matrix"):
            eigh_descending(np.ones((2, 3)))
