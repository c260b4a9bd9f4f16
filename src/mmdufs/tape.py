"""Dense matrix arithmetic with a reverse-mode differentiation tape.

The tape records a fixed set of coarse matrix primitives (matmul, kernels,
normalization sandwiches, inverses, traces, gating, ...). Calling
:meth:`Tape.backward` on a scalar node returns exact gradients with respect
to every trainable leaf. Eigendecomposition is provided as an off-tape
analysis utility.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack
from scipy.special import ndtr

__all__ = [
    "Tape",
    "Node",
    "DimensionError",
    "SingularMatrixError",
    "NumericalError",
    "ContractError",
    "eigh_descending",
    "pairwise_sq_dists",
    "PRIMITIVES",
]

_COND_LIMIT = 1e12


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class SingularMatrixError(ArithmeticError):
    """Matrix inverse requested for a numerically singular matrix."""


class NumericalError(FloatingPointError):
    """A primitive produced a non-finite value."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances between rows of a 2-D array.

    Clamped at zero with an exactly zero diagonal. For a contiguous x,
    x @ x.T runs as a BLAS syrk and the result is exactly symmetric.
    """
    return _dists_from_gram(np.einsum("ij,ij->i", x, x), x @ x.T)


def _dists_from_gram(sq: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _sym_normalize(k: np.ndarray):
    """(D^{-1/2} K D^{-1/2}, d, d^{-1/2}) for a square k with row sums d > 0."""
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError("sym_normalize needs a square matrix")
    d = k.sum(axis=1)
    if np.any(d <= 0):
        raise ContractError("sym_normalize: nonpositive row sum")
    r = 1.0 / np.sqrt(d)
    return k * r[:, None] * r[None, :], d, r


def _check_symmetric(a: np.ndarray) -> None:
    """ContractError unless max|a - a^T| <= 1e-8 * max(max|a|, 1)."""
    asym = np.abs(a - a.T).max() if a.size else 0.0
    if asym > 1e-8 * max(np.abs(a).max(), 1.0):
        raise ContractError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


def _as_array(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if not np.isfinite(out).all():
        raise NumericalError("input contains non-finite entries")
    return out


class Node:
    """One recorded value on the tape.

    Leaves hold data (optionally trainable); interior nodes remember the
    primitive that produced them, their inputs, and whatever the backward
    rule needs. needs_grad is true for a trainable leaf and for every node
    with a trainable ancestor; the reverse pass visits only those.
    """

    __slots__ = ("tape", "idx", "value", "op", "inputs", "cache", "trainable", "needs_grad")

    def __init__(self, tape, idx, value, op, inputs, cache=None, trainable=False):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.op = op
        self.inputs = inputs
        self.cache = cache
        self.trainable = trainable
        self.needs_grad = trainable or any(inp.needs_grad for inp in inputs)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Node(#{self.idx}, op={self.op}, shape={self.value.shape})"


class Tape:
    """Records primitives in topological order; replays gradients in reverse."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, value, op, inputs, cache=None, trainable=False) -> Node:
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NumericalError(f"primitive '{op}' produced non-finite values")
        node = Node(self, len(self.nodes), value, op, inputs, cache, trainable)
        self.nodes.append(node)
        return node

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, trainable: bool = False) -> Node:
        return self._record(_as_array(value), "leaf", (), trainable=trainable)

    def constant(self, value) -> Node:
        return self.leaf(value, trainable=False)

    # -- primitives ------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise DimensionError(f"matmul: {a.value.shape} @ {b.value.shape}")
        return self._record(a.value @ b.value, "matmul", (a, b))

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add: {a.value.shape} vs {b.value.shape}")
        return self._record(a.value + b.value, "add", (a, b))

    def scale(self, a: Node, alpha: float) -> Node:
        return self._record(a.value * float(alpha), "scale", (a,), cache=float(alpha))

    def exp(self, a: Node) -> Node:
        out = np.exp(a.value)
        return self._record(out, "exp", (a,), cache=out)

    def transpose(self, a: Node) -> Node:
        if a.value.ndim != 2:
            raise DimensionError("transpose needs a 2-D matrix")
        # A view: no tape value is ever mutated in place.
        return self._record(a.value.T, "transpose", (a,))

    def sym_normalize(self, k: Node) -> Node:
        """D^{-1/2} K D^{-1/2} with D = diag of row sums of K."""
        out, d, r = _sym_normalize(k.value)
        return self._record(out, "sym_normalize", (k,), cache=(d, r))

    def inverse(self, a: Node, shift: float = 0.0) -> Node:
        """(a + shift*I)^{-1} for a symmetric positive-definite a + shift*I.

        Cholesky factorization (potrf) and inversion from the factor (potri).
        shift moves the diagonal of a working copy, so no identity matrix is
        recorded; the gradient with respect to a is the one without it.
        """
        av = a.value
        if av.ndim != 2 or av.shape[0] != av.shape[1]:
            raise DimensionError("inverse needs a square matrix")
        _check_symmetric(av)
        n = av.shape[0]
        work = np.array(av, order="F")
        work.flat[:: n + 1] += shift
        anorm = np.abs(work).sum(axis=0).max()
        potrf, potri = scipy.linalg.lapack.get_lapack_funcs(("potrf", "potri"), (work,))
        factor, info = potrf(work, lower=False, clean=True, overwrite_a=True)
        if info == 0:
            inv, info = potri(factor, lower=False, overwrite_c=True)
        if info != 0:
            raise SingularMatrixError(f"inverse: not positive definite (potrf/potri info {info})")
        # potri fills the upper triangle; clean=True left zeros below it.
        diag = inv.diagonal().copy()
        inv = inv + inv.T
        np.fill_diagonal(inv, diag)
        # 1-norm condition estimate; cheap relative to the factorization.
        cond = anorm * np.abs(inv).sum(axis=0).max()
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularMatrixError(f"condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}")
        return self._record(inv, "inverse", (a,), cache=inv)

    def trace(self, a: Node) -> Node:
        if a.value.ndim != 2 or a.value.shape[0] != a.value.shape[1]:
            raise DimensionError("trace needs a square matrix")
        return self._record(np.trace(a.value), "trace", (a,))

    def gram(self, x: Node) -> Node:
        """x x^T: one BLAS syrk for a contiguous x, so exactly symmetric."""
        if x.value.ndim != 2:
            raise DimensionError("gram needs a 2-D matrix")
        return self._record(x.value @ x.value.T, "gram", (x,))

    def inner(self, a: Node, b: Node) -> Node:
        """<a, b> = sum(a * b); inner(a, gram(x)) is Tr[x^T a x] for any square a."""
        if a.value.ndim != 2 or a.value.shape != b.value.shape:
            raise DimensionError(f"inner: {a.value.shape} with {b.value.shape}")
        return self._record(np.vdot(a.value, b.value), "inner", (a, b))

    def hard_sigmoid(self, a: Node) -> Node:
        """clamp01(0.5 + x); subgradient 1 strictly inside (0, 1), else 0."""
        shifted = 0.5 + a.value
        out = np.clip(shifted, 0.0, 1.0)
        mask = ((shifted > 0.0) & (shifted < 1.0)).astype(np.float64)
        return self._record(out, "hard_sigmoid", (a,), cache=mask)

    def col_gate(self, x: Node, z: Node) -> Node:
        """Scale column j of x by z[j]."""
        if x.value.ndim != 2 or z.value.ndim != 1 or x.value.shape[1] != z.value.shape[0]:
            raise DimensionError(f"col_gate: {x.value.shape} with gates {z.value.shape}")
        return self._record(x.value * z.value[None, :], "col_gate", (x, z))

    def sq_dists(self, g: Node) -> Node:
        """Pairwise squared distances between the rows of x, from g = gram(x)."""
        if g.value.ndim != 2 or g.value.shape[0] != g.value.shape[1]:
            raise DimensionError("sq_dists needs a square Gram matrix")
        return self._record(_dists_from_gram(np.diag(g.value), g.value), "sq_dists", (g,))

    def open_gate_expectation(self, mu: Node, sigma: float) -> Node:
        """Sum over i of Phi((0.5 + mu_i)/sigma): expected count of open gates."""
        if mu.value.ndim != 1:
            raise DimensionError("open_gate_expectation needs a vector")
        if sigma <= 0:
            raise ContractError("gate noise scale must be positive")
        t = (0.5 + mu.value) / sigma
        val = float(ndtr(t).sum())
        return self._record(val, "open_gate_expectation", (mu,), cache=(t, float(sigma)))

    # -- generic dispatch ------------------------------------------------

    def apply(self, kind: str, *args, **kwargs) -> Node:
        if kind not in PRIMITIVES:
            raise ContractError(f"unknown primitive '{kind}'")
        return getattr(self, kind)(*args, **kwargs)

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Node) -> dict[int, np.ndarray]:
        """Gradient of a scalar node w.r.t. every trainable leaf.

        Returns a map from leaf node index to gradient array; trainable
        leaves the loss never touches get zeros. Nodes without a trainable
        ancestor are skipped, so constant subgraphs cost nothing here.
        """
        if loss.tape is not self:
            raise ContractError("loss node belongs to a different tape")
        if loss.value.size != 1:
            raise ContractError("backward requires a scalar node")

        grads: dict[int, np.ndarray] = {loss.idx: np.ones_like(loss.value)}
        for node in reversed(self.nodes[: loss.idx + 1]):
            g = grads.pop(node.idx, None)
            if g is None or not node.needs_grad or node.op == "leaf":
                if g is not None:
                    grads[node.idx] = g  # keep leaf grads
                continue
            for inp, contrib in self._vjp(node, g):
                acc = grads.get(inp.idx)
                grads[inp.idx] = contrib if acc is None else acc + contrib

        out = {}
        for node in self.nodes:
            if node.op == "leaf" and node.trainable:
                out[node.idx] = grads.get(node.idx, np.zeros_like(node.value))
        return out

    def grad(self, loss: Node, leaf: Node) -> np.ndarray:
        return self.backward(loss)[leaf.idx]

    def _vjp(self, node: Node, g: np.ndarray):
        """(input, contribution) pairs for the inputs that need a gradient.

        A one-input node needs a gradient only if its input does, so only the
        two-input rules check their operands.
        """
        op = node.op
        a = node.inputs[0]
        if op == "matmul":
            b = node.inputs[1]
            if a.needs_grad:
                yield a, g @ b.value.T
            if b.needs_grad:
                yield b, a.value.T @ g
        elif op == "add":
            b = node.inputs[1]
            if a.needs_grad:
                yield a, g
            if b.needs_grad:
                yield b, g
        elif op == "scale":
            yield a, g * node.cache
        elif op == "exp":
            yield a, g * node.cache
        elif op == "transpose":
            yield a, g.T
        elif op == "sym_normalize":
            d, r = node.cache
            k = a.value
            gk = g * r[:, None] * r[None, :]
            coef = -0.5 * d ** -1.5
            u = coef * np.einsum("ij,ij,j->i", g, k, r)
            v = coef * np.einsum("ij,ij,i->j", g, k, r)
            # Both degree corrections attach to the row index of K: d_i is a
            # row sum, so dK_pq perturbs only d_p, hence r_p, for every q.
            yield a, gk + (u + v)[:, None]
        elif op == "inverse":  # inv is symmetric
            inv = node.cache
            yield a, -inv @ g @ inv
        elif op == "trace":
            n = a.value.shape[0]
            yield a, float(g) * np.eye(n)
        elif op == "gram":
            yield a, (g + g.T) @ a.value
        elif op == "inner":
            b, g = node.inputs[1], float(g)
            if a.needs_grad:
                yield a, g * b.value
            if b.needs_grad:
                yield b, g * a.value
        elif op == "hard_sigmoid":
            yield a, g * node.cache
        elif op == "col_gate":
            x, z = node.inputs
            if x.needs_grad:
                yield x, g * z.value[None, :]
            if z.needs_grad:
                yield z, np.einsum("ij,ij->j", g, x.value)
        elif op == "sq_dists":  # d_ij = G_ii + G_jj - 2 G_ij
            yield a, np.diag(g.sum(axis=1) + g.sum(axis=0)) - 2.0 * g
        elif op == "open_gate_expectation":
            t, sigma = node.cache
            pdf = np.exp(-0.5 * t * t) / (np.sqrt(2.0 * np.pi) * sigma)
            yield a, float(g) * pdf
        else:  # pragma: no cover
            raise ContractError(f"no backward rule for '{op}'")


PRIMITIVES = (
    "matmul",
    "add",
    "scale",
    "exp",
    "transpose",
    "sym_normalize",
    "inverse",
    "trace",
    "gram",
    "inner",
    "hard_sigmoid",
    "col_gate",
    "sq_dists",
    "open_gate_expectation",
)


def eigh_descending(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (A + A^T)/2 before decomposition. This is an
    analysis utility only; it is never recorded on a tape.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("eigendecomposition needs a square matrix")
    _check_symmetric(a)
    sym = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]
