"""Dense matrix arithmetic with a reverse-mode differentiation tape.

The tape records a fixed set of coarse matrix primitives (matmul, kernels,
normalization sandwiches, inverses, inner products, quadratic forms, column
scaling, ...).
Calling :meth:`Tape.backward` on a scalar node returns exact gradients with
respect to every trainable leaf. An operand that no gradient reaches is a
plain array, not a node: scale's and exp's factors, the data col_gate scales
and the matrix inverse inverts, so an inverse node has no inputs. Every pooled
array has one owner: a node value, a cache, a scratch buffer or one gradient.
Arrays change hands at ``Tape(reuse=prev)``, where the next tape takes over
the whole set, and go back to the free list when their owner is done with
them: scratch once its primitive returns, a gradient once the rule that read
it has run. Node values, caches and returned gradients stay a tape's own until
the next tape takes over, so a loop that records one tape per step allocates
one buffer set in all. No primitive records, and no reverse rule passes on, a
view, so the pool tracks arrays by identity. The symmetric positive-definite
inverse is numpy's own (a recursive Schur-complement block inverse), so no
primitive loads scipy.
Eigendecomposition is provided as an off-tape analysis utility.
"""

from __future__ import annotations

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
    "PRIMITIVES",
]

_COND_LIMIT = 1e12
_SYM_TILE = 128  # rows and columns of a square tile of the symmetry check
_DIST_BLOCK = 1 << 16  # entries per scratch block of the in-place distances
_LEAF_ROWS = 64  # largest block _spd_inverse inverts from its Cholesky factor

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


@_typed_errors_only
def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances between rows of a 2-D array.

    Clamped at zero, with a zero diagonal; for a contiguous x, x @ x.T is one BLAS
    syrk, so d is exactly symmetric. d is written over that Gram matrix in place,
    so the call holds one n x n array, and it equals Tape.sq_dists(Tape.gram(x))
    bit for bit. Like the tape, it lets a non-finite entry through without a
    numpy warning, for the kernel's check to raise NumericalError.
    """
    g = x @ x.T
    return _dists_from_gram(g, g)


def _dists_from_gram(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(g_ii + g_jj) - g_ij - g_ij, clamped at zero with a zero diagonal, written to out.

    Works a block of at most _DIST_BLOCK entries at a time. out may be g
    itself: each block's sums are then formed in one scratch block, so no
    second n x n array is made. Either way each entry sees the same operations
    in the same order, so d is as symmetric as g is and the same bit for bit.
    """
    n = len(g)
    rows = max(1, _DIST_BLOCK // max(n, 1))
    sq, scratch = g.diagonal(), None
    if out is g:  # the rows overwrite the diagonal, and the sums need a block of their own
        sq, scratch = sq.copy(), np.empty((min(rows, n), n))
    for i in range(0, n, rows):
        g_rows, d_rows = g[i : i + rows], out[i : i + rows]
        s = d_rows if scratch is None else scratch[: len(d_rows)]
        np.add(sq[i : i + rows, None], sq[None, :], out=s)
        s -= g_rows
        np.subtract(s, g_rows, out=d_rows)
        np.maximum(d_rows, 0.0, out=d_rows)
    np.fill_diagonal(out, 0.0)
    return out


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


def _max_asymmetry(a: np.ndarray) -> float:
    """max|a - a^T| of a square a, from the tiles on and above the diagonal against their
    mirror tiles (|a_ij - a_ji| is |a_ji - a_ij| exactly), so it takes no array as large as a."""
    n, t = len(a), _SYM_TILE
    return max(
        (np.abs(a[i : i + t, j : j + t] - a[j : j + t, i : i + t].T).max()
         for i in range(0, n, t) for j in range(i, n, t)),
        default=0.0,
    )


def _check_symmetric(a: np.ndarray) -> None:
    """ContractError unless max|a - a^T| <= 1e-8 * max(max|a|, 1)."""
    if (asym := _max_asymmetry(a)) > 1e-8 * max(a.max(initial=0.0), -a.min(initial=0.0), 1.0):
        raise ContractError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


def _spd_inverse(a: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the symmetric positive-definite a to out, overwriting a.

    a is read from its upper triangle. With A11 the leading half of a, A12 the
    block to its right and T = A11^{-1} A12, a is positive definite exactly
    when A11 and S = A22 - T^T A12 are, and

        a^{-1} = [[A11^{-1} + T S^{-1} T^T, -T S^{-1}], [-S^{-1} T^T, S^{-1}]].

    Blocks of at most _LEAF_ROWS rows are inverted from their Cholesky factor,
    so a block that is not positive definite raises LinAlgError there. Every
    intermediate lives in a block of a or out that is free at that step, and
    the inputs of each product sit in other rows or in the other array than
    its output, so numpy copies none of them: the only arrays allocated are
    those of the leaves. out comes out exactly symmetric.
    """
    n = len(a)
    if n <= _LEAF_ROWS:
        li = np.linalg.inv(np.linalg.cholesky(a.T))  # a = L L^T, a^{-1} = L^-T L^-1
        np.matmul(li.T, li, out=out)  # one syrk: exactly symmetric
        return
    k = n // 2  # k <= n - k, so T S^-1 T^T fits in the first k columns of out's (1,2) block
    a11, a12, a21, a22 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    o11, o12, o21, o22 = out[:k, :k], out[:k, k:], out[k:, :k], out[k:, k:]
    _spd_inverse(a11, o11)
    t_t = np.matmul(a12.T, o11, out=a21)  # T^T = A12^T A11^{-1}; A21 is A12^T, never read
    np.matmul(t_t, a12, out=o22)
    np.subtract(a22, o22, out=o22)
    s = np.add(o22, o22.T, out=a22)
    s *= 0.5
    _spd_inverse(s, o22)
    ts = np.matmul(t_t.T, o22, out=a12)  # T S^{-1}
    o11 += np.matmul(ts, t_t, out=o12[:, :k])
    np.add(o11, o11.T, out=a11)
    np.multiply(a11, 0.5, out=o11)
    np.negative(ts, out=o12)
    np.negative(ts.T, out=o21)


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
    overwritten. Within one tape each handed-out array has one owner, which
    releases it when done (see _release); no array is handed out twice at once.
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

    def _release(self, arr: np.ndarray) -> None:
        """Put arr back on the free list, if it is a pooled array."""
        if self._taken.pop(id(arr), None) is not None:
            self._free.setdefault(arr.shape, []).append(arr)

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

    def sym_normalize(self, k: Node) -> Node:
        """D^{-1/2} K D^{-1/2} with D = diag of row sums of K."""
        out, d, r = _sym_normalize(k.value, out=self._take(k.value.shape))
        return self._record(out, "sym_normalize", (k,), cache=(d, r))

    def inverse(self, a: np.ndarray, shift: float = 0.0) -> Node:
        """(a + shift*I)^{-1} for a symmetric positive-definite a + shift*I.

        A recursive Schur-complement block inverse in numpy (_spd_inverse),
        read from the upper triangle of a, exactly symmetric. a is data, like
        scale's factor: no gradient reaches it, so the node records no input
        and no cache. shift moves the diagonal of a working copy, so a is left
        as it was and no identity matrix is recorded.
        """
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("inverse needs a square matrix")
        n = a.shape[0]
        _check_symmetric(a)
        # Two buffers: the result, scratch for the 1-norm until the inversion
        # writes it, and the work copy that the inversion overwrites, scratch
        # again until it is released.
        inv, work = self._take((n, n)), self._take((n, n))
        np.copyto(work, a)
        work.flat[:: n + 1] += shift
        anorm = np.abs(work, out=inv).sum(axis=0).max()
        try:
            _spd_inverse(work, inv)
        except np.linalg.LinAlgError:
            raise SingularMatrixError("inverse: not positive definite") from None
        # 1-norm condition estimate; cheap relative to the inversion.
        cond = anorm * np.abs(inv, out=work).sum(axis=0).max()
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularMatrixError(f"condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}")
        self._release(work)
        return self._record(inv, "inverse", ())

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

    def col_gate(self, x: np.ndarray, z: Node) -> Node:
        """Scale column j of the data x by z[j]. z is the one input; x, which no gradient
        reaches, is kept as the cache."""
        if x.ndim != 2 or z.value.ndim != 1 or x.shape[1] != z.value.shape[0]:
            raise DimensionError(f"col_gate: {x.shape} with scales {z.value.shape}")
        out = np.multiply(x, z.value[None, :], out=self._take(x.shape))
        return self._record(out, "col_gate", (z,), cache=x)

    def sq_dists(self, g: Node) -> Node:
        """Pairwise squared distances between the rows of x, from g = gram(x)."""
        if g.value.ndim != 2 or g.value.shape[0] != g.value.shape[1]:
            raise DimensionError("sq_dists needs a square Gram matrix")
        return self._record(_dists_from_gram(g.value, self._take(g.value.shape)), "sq_dists", (g,))

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

        Each gradient owns its buffer, so no two returned gradients share
        memory: a contribution to an input that already has a gradient is
        added into it in place, and once a node's rule has run, the node's
        gradient buffer goes back to the free list unless the rule passed it
        on. Node values, caches and returned gradients are never released.
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
            passed_on = False
            for inp, contrib in self._vjp(node, g):
                passed_on = passed_on or contrib is g
                acc = grads.get(inp.idx)
                if acc is None:
                    grads[inp.idx] = contrib
                else:
                    acc += contrib
                    self._release(contrib)
            # Only now: the rule reads g until its last contribution is out.
            if not passed_on:
                self._release(g)

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
        two-input rules check their operands. Each contribution owns its buffer:
        g itself at most once per rule, else a new array (most from _take),
        never a view, nor a node's value or cache. A rule never writes to g and
        yields it last, since backward may add into it or release it.
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
        elif op == "add":  # g to one input; a copy first if both need one
            b = node.inputs[1]
            if a.needs_grad and b.needs_grad:
                yield b, np.positive(g, out=take(g.shape))
            yield (a if a.needs_grad else b), g
        elif op == "scale":
            yield a, np.multiply(g, node.cache, out=take(g.shape))
        elif op == "exp":  # d exp(s a) = s exp(s a) da
            out = np.multiply(g, node.value, out=take(g.shape))
            out *= node.cache
            yield a, out
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
        elif op == "col_gate":  # x, the cache, is data
            yield a, np.einsum("ij,ij->j", g, node.cache)
        elif op == "sq_dists":  # d_ij = G_ii + G_jj - 2 G_ij
            out = np.multiply(g, -2.0, out=take(g.shape))
            out.flat[:: g.shape[0] + 1] += g.sum(axis=1) + g.sum(axis=0)
            yield a, out
        else:  # pragma: no cover
            raise ContractError(f"no backward rule for '{op}'")


PRIMITIVES = (
    "matmul",
    "add",
    "scale",
    "exp",
    "sym_normalize",
    "inverse",
    "gram",
    "inner",
    "quad_form",
    "col_gate",
    "sq_dists",
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
