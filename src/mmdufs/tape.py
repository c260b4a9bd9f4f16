"""Dense matrix arithmetic with a reverse-mode differentiation tape.

The tape records a fixed set of coarse matrix primitives (matmul, kernels,
normalization sandwiches, inverses, traces, quadratic forms, gating, ...).
Calling :meth:`Tape.backward` on a scalar node returns exact gradients with
respect to every trainable leaf. Pooled arrays change hands at
``Tape(reuse=prev)``, where the next tape takes over the whole set, and inside
the reverse sweep, which returns each gradient buffer to the free list once
no pending gradient needs it. Node values, caches and returned gradients stay
a tape's own until the next tape takes over, so a loop that records one tape
per step allocates one buffer set in all. Eigendecomposition is provided as
an off-tape analysis utility.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tape",
    "Node",
    "DimensionError",
    "SingularMatrixError",
    "NumericalError",
    "ContractError",
    "eigh_descending",
    "pairwise_sq_dists",
    "normal_cdf",
    "PRIMITIVES",
]

_COND_LIMIT = 1e12
_SYM_BLOCK = 8192  # entries per block of the symmetry check
_SQRT1_2 = math.sqrt(0.5)

# inf/nan from a primitive ends in NumericalError (or the primitive's own
# typed error), not a numpy warning: every primitive and backward run in this
# scope. The decorator form sets it afresh on each call, so it nests.
_typed_errors_only = np.errstate(over="ignore", invalid="ignore")


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

    Clamped at zero, with a zero diagonal; for a contiguous x, x @ x.T is one BLAS
    syrk, so d is exactly symmetric and equal to Tape.sq_dists(Tape.gram(x)).
    """
    return _dists_from_gram(x @ x.T)


def normal_cdf(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry of a 1-D array: Phi(t) = erfc(-t/sqrt(2)) / 2.

    Built on math.erfc, so importing this module loads no scipy. Callers pass
    one entry per gate, so the Python-level map costs tens of microseconds.
    """
    arg = np.multiply(t, -_SQRT1_2)
    return 0.5 * np.fromiter(map(math.erfc, arg.tolist()), np.float64, arg.size)


def _dists_from_gram(g: np.ndarray, out=None) -> np.ndarray:
    """(g_ii + g_jj) - g_ij - g_ij, clamped, in out if given; as symmetric as g is."""
    sq = np.diag(g)
    d = np.add(sq[:, None], sq[None, :], out=out)
    d -= g
    d -= g
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _sym_normalize(k: np.ndarray, out=None):
    """(D^{-1/2} K D^{-1/2}, d, d^{-1/2}) for a square k with row sums d > 0.

    out, if given, is an array shaped like k that receives the result.
    """
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError("sym_normalize needs a square matrix")
    d = k.sum(axis=1)
    if np.any(d <= 0):
        raise ContractError("sym_normalize: nonpositive row sum")
    r = 1.0 / np.sqrt(d)
    out = np.multiply(k, r[:, None], out=out)
    out *= r[None, :]
    return out, d, r


def _check_symmetric(a: np.ndarray) -> None:
    """ContractError unless max|a - a^T| <= 1e-8 * max(max|a|, 1).

    Works in blocks of rows, so the check takes no array as large as a.
    """
    rows = max(1, _SYM_BLOCK // max(len(a), 1))
    asym = max(
        (np.abs(a[i : i + rows] - a[:, i : i + rows].T).max() for i in range(0, len(a), rows)),
        default=0.0,
    )
    if asym > 1e-8 * max(a.max(initial=0.0), -a.min(initial=0.0), 1.0):
        raise ContractError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


class Node:
    """One recorded value on the tape.

    Leaves hold data (optionally trainable); interior nodes remember the
    primitive that produced them, their inputs, and whatever the backward
    rule needs. needs_grad is true for a trainable leaf and for every node
    with a trainable ancestor; the reverse pass visits only those.
    """

    __slots__ = ("idx", "value", "op", "inputs", "cache", "trainable", "needs_grad")

    def __init__(self, idx, value, op, inputs, cache=None, trainable=False):
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
    """Records primitives in topological order; replays gradients in reverse.

    Nodes do not point back at their tape, so a tape and its arrays are freed
    as soon as the last reference to it goes, without the cyclic collector.

    Tape(reuse=prev) takes over every array prev handed out — its nodes'
    values and caches, its scratch space and the gradients of its backward —
    and the new tape writes its array results, forward and backward, into
    them. prev is emptied: backward on one of its nodes raises ContractError,
    and any array read from its nodes or returned by its backward may be
    overwritten. Within one tape, backward hands a gradient buffer out again
    once it is spent (see _give_back); no array is handed out twice at once.
    """

    def __init__(self, reuse: Tape | None = None):
        self.nodes: list[Node] = []
        # Pooled C-order arrays: free to hand out (by shape), and handed out (by id).
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._taken: dict[int, np.ndarray] = {}
        if reuse is not None:
            self._free = reuse._free
            for arr in reuse._taken.values():
                self._free.setdefault(arr.shape, []).append(arr)
            reuse.nodes, reuse._free, reuse._taken = [], {}, {}

    def _take(self, shape: tuple) -> np.ndarray:
        """An uninitialized array from the free list (a new one if it has none)."""
        free = self._free.get(shape)
        arr = free.pop() if free else np.empty(shape)
        self._taken[id(arr)] = arr
        return arr

    def _give_back(self, spent, pending) -> None:
        """Return to the free list each pooled buffer under an array of spent
        that no pending gradient is or views.

        spent holds gradients a reverse rule has finished reading; a transpose
        view is traced to its buffer through .base. add passes g to both
        inputs and transpose passes g.T, so one buffer can back several.
        """
        for arr in spent:
            buf = arr if arr.base is None else arr.base
            if self._taken.get(id(buf)) is buf and not any(
                p is buf or p.base is buf for p in pending
            ):
                del self._taken[id(buf)]
                self._free.setdefault(buf.shape, []).append(buf)

    def _record(self, value, op, inputs, cache=None, trainable=False) -> Node:
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NumericalError(f"primitive '{op}' produced non-finite values")
        node = Node(len(self.nodes), value, op, inputs, cache, trainable)
        self.nodes.append(node)
        return node

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, trainable: bool = False) -> Node:
        return self._record(value, "leaf", (), trainable=trainable)

    def constant(self, value) -> Node:
        return self.leaf(value, trainable=False)

    # -- primitives ------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise DimensionError(f"matmul: {a.value.shape} @ {b.value.shape}")
        out = self._take((a.value.shape[0], b.value.shape[1]))
        return self._record(np.matmul(a.value, b.value, out=out), "matmul", (a, b))

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add: {a.value.shape} vs {b.value.shape}")
        return self._record(np.add(a.value, b.value, out=self._take(a.value.shape)), "add", (a, b))

    def scale(self, a: Node, alpha: float) -> Node:
        alpha = float(alpha)
        out = np.multiply(a.value, alpha, out=self._take(a.value.shape))
        return self._record(out, "scale", (a,), cache=alpha)

    def exp(self, a: Node, scale: float) -> Node:
        """exp(scale * a), in one buffer."""
        scale = float(scale)
        out = np.multiply(a.value, scale, out=self._take(a.value.shape))
        return self._record(np.exp(out, out=out), "exp", (a,), cache=scale)

    def transpose(self, a: Node) -> Node:
        if a.value.ndim != 2:
            raise DimensionError("transpose needs a 2-D matrix")
        # A view: no tape value is ever mutated in place.
        return self._record(a.value.T, "transpose", (a,))

    def sym_normalize(self, k: Node) -> Node:
        """D^{-1/2} K D^{-1/2} with D = diag of row sums of K."""
        out, d, r = _sym_normalize(k.value, out=self._take(k.value.shape))
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
        n = av.shape[0]
        _check_symmetric(av)
        # Two buffers: the result, scratch for the 1-norm until potri is done,
        # and the F-order work array (a C-order take transposed) that potrf
        # and potri overwrite in place, scratch once the result is formed.
        inv, buf = self._take((n, n)), self._take((n, n))
        work = buf.T
        np.copyto(work, av)
        work.flat[:: n + 1] += shift
        anorm = np.abs(work, out=inv.T).sum(axis=0).max()
        # Loaded at the first inverse: only differential mode pays for scipy.
        import scipy.linalg.lapack

        potrf, potri = scipy.linalg.lapack.get_lapack_funcs(("potrf", "potri"), (work,))
        factor, info = potrf(work, lower=False, clean=True, overwrite_a=True)
        if info == 0:
            upper, info = potri(factor, lower=False, overwrite_c=True)
        if info != 0:
            raise SingularMatrixError(f"inverse: not positive definite (potrf/potri info {info})")
        # potri fills the upper triangle; clean=True left zeros below it.
        diag = upper.diagonal().copy()
        np.add(upper, upper.T, out=inv)
        np.fill_diagonal(inv, diag)
        # 1-norm condition estimate; cheap relative to the factorization.
        cond = anorm * np.abs(inv, out=buf).sum(axis=0).max()
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
        out = self._take((x.value.shape[0], x.value.shape[0]))
        return self._record(np.matmul(x.value, x.value.T, out=out), "gram", (x,))

    def inner(self, a: Node, b: Node) -> Node:
        """<a, b> = sum(a * b); inner(a, gram(x)) is Tr[x^T a x] for any square a."""
        if a.value.ndim != 2 or a.value.shape != b.value.shape:
            raise DimensionError(f"inner: {a.value.shape} with {b.value.shape}")
        return self._record(np.vdot(a.value, b.value), "inner", (a, b))

    def quad_form(self, l: Node, w: Node) -> Node:
        """<l w, w> = Tr[w^T l w] for a symmetric l; the forward caches l w."""
        lv, wv = l.value, w.value
        if lv.ndim != 2 or wv.ndim != 2 or lv.shape != (wv.shape[0], wv.shape[0]):
            raise DimensionError(f"quad_form: {lv.shape} with {wv.shape}")
        _check_symmetric(lv)
        lw = np.matmul(lv, wv, out=self._take(wv.shape))
        return self._record(np.vdot(lw, wv), "quad_form", (l, w), cache=lw)

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
        out = np.multiply(x.value, z.value[None, :], out=self._take(x.value.shape))
        return self._record(out, "col_gate", (x, z))

    def sq_dists(self, g: Node) -> Node:
        """Pairwise squared distances between the rows of x, from g = gram(x)."""
        if g.value.ndim != 2 or g.value.shape[0] != g.value.shape[1]:
            raise DimensionError("sq_dists needs a square Gram matrix")
        return self._record(_dists_from_gram(g.value, self._take(g.value.shape)), "sq_dists", (g,))

    def open_gate_expectation(self, mu: Node, sigma: float) -> Node:
        """Sum over i of Phi((0.5 + mu_i)/sigma): expected count of open gates."""
        if mu.value.ndim != 1:
            raise DimensionError("open_gate_expectation needs a vector")
        if sigma <= 0:
            raise ContractError("gate noise scale must be positive")
        t = (0.5 + mu.value) / sigma
        val = float(normal_cdf(t).sum())
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

        Once a node's rule has run, the buffers of the gradients it read are
        handed out again to the rules after it, unless a pending gradient is
        or views one of them. Only this sweep's gradients are ever spent (see
        _vjp), and the ones returned here stay pending, so node values,
        caches, an earlier sweep's gradients and this one's stay this tape's.
        """
        if not (loss.idx < len(self.nodes) and self.nodes[loss.idx] is loss):
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
            spent = [g]
            for inp, contrib in self._vjp(node, g):
                acc = grads.get(inp.idx)
                if acc is not None:
                    # Into a new buffer: acc or contrib may alias a value or
                    # another entry (add passes g to both inputs, transpose a view).
                    spent += (acc, contrib)
                    contrib = np.add(acc, contrib, out=self._take(acc.shape))
                grads[inp.idx] = contrib
            # Only now: the rule reads g until its last contribution is out.
            self._give_back(spent, grads.values())

        out = {}
        for node in self.nodes:
            if node.op == "leaf" and node.trainable:
                out[node.idx] = grads.get(node.idx, np.zeros_like(node.value))
        return out

    def grad(self, loss: Node, leaf: Node) -> np.ndarray:
        """Gradient of a scalar node w.r.t. one trainable leaf of this tape."""
        if not (leaf.trainable and leaf.idx < len(self.nodes) and self.nodes[leaf.idx] is leaf):
            raise ContractError(
                f"grad: node #{leaf.idx} ({leaf.op}, shape {leaf.shape}) is not a trainable leaf"
                " of this tape"
            )
        return self.backward(loss)[leaf.idx]

    def _vjp(self, node: Node, g: np.ndarray):
        """(input, contribution) pairs for the inputs that need a gradient.

        A one-input node needs a gradient only if its input does, so only the
        two-input rules check their operands. A contribution is g, g.T or a
        new array (most are written into buffers from _take), never a node's
        value or cache, which backward relies on; g itself is never written to.
        """
        op = node.op
        a = node.inputs[0]
        take = self._take
        if op == "matmul":
            b = node.inputs[1]
            if a.needs_grad:
                yield a, np.matmul(g, b.value.T, out=take(a.value.shape))
            if b.needs_grad:
                yield b, np.matmul(a.value.T, g, out=take(b.value.shape))
        elif op == "add":
            b = node.inputs[1]
            if a.needs_grad:
                yield a, g
            if b.needs_grad:
                yield b, g
        elif op == "scale":
            yield a, np.multiply(g, node.cache, out=take(g.shape))
        elif op == "exp":  # d exp(s a) = s exp(s a) da
            out = np.multiply(g, node.value, out=take(g.shape))
            out *= node.cache
            yield a, out
        elif op == "transpose":
            yield a, g.T
        elif op == "sym_normalize":  # L = r_i K_ij r_j with r = d^{-1/2}
            d, r = node.cache
            gk = np.multiply(g, node.value, out=take(g.shape))
            w = gk.sum(axis=1)
            w += gk.sum(axis=0)
            w *= -0.5 / d
            np.multiply(g, r[:, None], out=gk)
            gk *= r[None, :]
            # Both degree corrections attach to the row index of K: d_i is a
            # row sum, so dK_pq perturbs only d_p, hence r_p, for every q.
            gk += w[:, None]
            yield a, gk
        elif op == "inverse":  # inv is symmetric; -(inv g inv), negated exactly last
            inv = node.cache
            half = np.matmul(inv, g, out=take(g.shape))
            out = np.matmul(half, inv, out=take(g.shape))
            yield a, np.negative(out, out=out)
        elif op == "trace":
            n = a.value.shape[0]
            yield a, float(g) * np.eye(n)
        elif op == "gram":
            h = np.add(g, g.T, out=take(g.shape))
            yield a, np.matmul(h, a.value, out=take(a.value.shape))
        elif op == "inner":
            b, g = node.inputs[1], float(g)
            if a.needs_grad:
                yield a, np.multiply(b.value, g, out=take(b.value.shape))
            if b.needs_grad:
                yield b, np.multiply(a.value, g, out=take(a.value.shape))
        elif op == "quad_form":  # l symmetric: d/dl = g w w^T, d/dw = 2g l w
            w, g = node.inputs[1], float(g)
            if a.needs_grad:
                out = np.matmul(w.value, w.value.T, out=take(a.value.shape))
                yield a, np.multiply(out, g, out=out)
            if w.needs_grad:
                yield w, np.multiply(node.cache, 2.0 * g, out=take(w.value.shape))
        elif op == "hard_sigmoid":
            yield a, g * node.cache
        elif op == "col_gate":
            x, z = node.inputs
            if x.needs_grad:
                yield x, np.multiply(g, z.value[None, :], out=take(g.shape))
            if z.needs_grad:
                yield z, np.einsum("ij,ij->j", g, x.value)
        elif op == "sq_dists":  # d_ij = G_ii + G_jj - 2 G_ij
            out = np.multiply(g, -2.0, out=take(g.shape))
            out.flat[:: g.shape[0] + 1] += g.sum(axis=1) + g.sum(axis=0)
            yield a, out
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
    "quad_form",
    "hard_sigmoid",
    "col_gate",
    "sq_dists",
    "open_gate_expectation",
)

for _name in PRIMITIVES + ("backward",):
    setattr(Tape, _name, _typed_errors_only(getattr(Tape, _name)))
del _name


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
