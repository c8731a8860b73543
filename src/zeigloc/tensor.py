"""Dense real tensors of order m, dimension n, and their multilinear operations.

A tensor here is a dense array of n**m real entries addressed by an m-tuple of
indices.  Indices are 1-based in every external interface (the text format and
the ``entry`` accessor) and 0-based internally; the parser and serializer are
the only places that translate between the two.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

# Dense storage is deliberate: the problems this library targets are desk
# sized, and a dense array keeps the row-sum splits free of index bookkeeping.
MAX_DENSE_ENTRIES = 10**8

_HEADER_RE = re.compile(r"^tensor\s+m=(\d+)\s+n=(\d+)(\s+symmetric)?\s*$")


def _too_large(order: int, dim: int) -> bool:
    """dim**order > MAX_DENSE_ENTRIES for dim >= 2, without the power at a
    huge order: from the cap's bit length on, 2**order alone exceeds it."""
    return order >= MAX_DENSE_ENTRIES.bit_length() or dim**order > MAX_DENSE_ENTRIES


class TensorFormatError(ValueError):
    """Malformed tensor text input.  ``lines`` holds the offending 1-based line numbers."""

    def __init__(self, message, lines=()):
        self.lines = tuple(lines)
        if self.lines:
            noun = "lines" if len(self.lines) > 1 else "line"
            message = f"{message} ({noun} {', '.join(str(k) for k in self.lines)})"
        super().__init__(message)


class Tensor:
    """Immutable dense real tensor of order ``order`` and dimension ``dim``.

    ``entries`` is a read-only float array of shape ``(dim,) * order``.  The
    array is validated to be finite on construction and is safe to share
    across threads.
    """

    __slots__ = ("order", "dim", "entries")

    def __init__(self, order: int, dim: int, entries):
        if order < 2 or dim < 2:
            raise ValueError(f"tensor needs order >= 2 and dim >= 2, got m={order}, n={dim}")
        if _too_large(order, dim):
            raise ValueError(
                f"dense tensor too large: {dim}**{order} entries exceeds {MAX_DENSE_ENTRIES}"
            )
        arr = np.array(entries, dtype=float)
        if arr.shape != (dim,) * order:
            raise ValueError(f"entries shape {arr.shape} does not match ({dim},) * {order}")
        # NaN and infinities reach min or max: no mask the size of the entries
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ValueError("tensor entries must be finite (no NaN or infinity)")
        self._hold(arr)

    def _hold(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "order", arr.ndim)
        object.__setattr__(self, "dim", len(arr))
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor":
        """The tensor over a finite float array of shape (n,) * m, n, m >= 2, uncopied."""
        A = cls.__new__(cls)
        A._hold(arr)
        return A

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def zeros(cls, order: int, dim: int) -> "Tensor":
        return cls(order, dim, np.zeros((dim,) * order))

    def entry(self, indices) -> float:
        """Entry at a 1-based index tuple."""
        idx = tuple(indices)
        if len(idx) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(idx)}")
        for i in idx:
            if not 1 <= i <= self.dim:
                raise ValueError(f"index {i} out of range 1..{self.dim}")
        return float(self.entries[tuple(i - 1 for i in idx)])

    def max_abs_entry(self) -> float:
        return float(max(self.entries.max(), -self.entries.min()))  # no |entries| copy

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"


def _as_vector(A: Tensor, x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (A.dim,):
        raise ValueError(f"vector length {v.shape} does not match tensor dimension {A.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _apply_block(entries: np.ndarray, X: np.ndarray, keep: int = 1) -> np.ndarray:
    """A x^(m-1) for every row x of the (S, n) block X, with A given by its
    ``entries``.  The last index is contracted by one matrix product with
    the entries as an (n^(m-1), n) matrix, and each further one by a batched
    matrix product per row; an empty block gives an empty (0, n) result.

    With ``keep`` > 1 the first ``keep`` axes stay open: the result is the
    (S, n^keep) block of the contractions of the other axes (with keep = m,
    a read-only view of the entries for every row)."""
    S, n = X.shape
    if keep == entries.ndim:
        return np.broadcast_to(entries.reshape(1, -1), (S, entries.size))
    Y = X @ entries.reshape(-1, n).T
    col = X[:, :, None]
    for k in range(entries.ndim - 2, keep - 1, -1):
        Y = np.matmul(Y.reshape(S, n**k, n), col)
    return Y.reshape(S, n**keep)


def _jacobian_tensor(entries: np.ndarray) -> np.ndarray:
    """The tensor whose contraction of all but its first two axes with x gives
    the Jacobian of A x^(m-1) at x, with A given by its ``entries``: the sum
    of the m-1 rotations of the tail axes.

    Entry (i, j) of the Jacobian sums, over the m-1 tail positions, the
    contraction of the other tail positions with x, that position held at j.
    In the rotated sum each position sits second, so
    ``_apply_block(_jacobian_tensor(entries), X, keep=2)`` gives the (S, n*n)
    block of Jacobians at the rows of X.  A need not be symmetric.
    """
    tail = list(range(1, entries.ndim))
    return sum(entries.transpose([0, *tail[p:], *tail[:p]]) for p in range(len(tail)))


def apply(A: Tensor, x) -> np.ndarray:
    """Contract the last m-1 indices with x: component i is the sum of
    a[i, i2, ..., im] * x[i2] * ... * x[im] over all tail tuples."""
    return _apply_block(A.entries, _as_vector(A, x)[None])[0]


def polyval(A: Tensor, x) -> float:
    """Value of the homogeneous degree-m polynomial attached to A at x: x . A x^(m-1)."""
    v = _as_vector(A, x)
    return float(v @ apply(A, v))


def gradient(A: Tensor, x) -> np.ndarray:
    """Exact gradient of ``polyval(A, .)`` at x.

    Component i collects, for each of the m index positions, the contraction
    of the tensor over the other m-1 positions with the index at that
    position held at i: A x^(m-1) of the tensor with its axes rotated to
    put that position first.
    """
    X = _as_vector(A, x)[None]
    axes = list(range(A.order))
    return sum(_apply_block(A.entries.transpose(axes[p:] + axes[:p]), X)[0] for p in axes)


# absolute orbit spread up to which `info` and `verify` call a tensor symmetric
SYMMETRY_TOL = 1e-12
# relative tolerance of the weak-symmetry verdict: max residual <= tol * (1 + max|entry|)
WEAK_SYMMETRY_TOL = 1e-9


def is_nonnegative(A: Tensor) -> bool:
    """True iff every entry is >= 0.  Strict sign test, no tolerance."""
    return bool(np.all(A.entries >= 0.0))


# flat indices per block of the orbit-key pass: bounds its index arrays at
# order ints per entry
_ORBIT_BLOCK = 65536


def _orbit_key_blocks(shape):
    """Yield (slice, keys) over the flat indices in blocks of ``_ORBIT_BLOCK``;
    the orbit key of a flat index is the flat index of its sorted index tuple."""
    size = math.prod(shape)
    for start in range(0, size, _ORBIT_BLOCK):
        block = slice(start, min(start + _ORBIT_BLOCK, size))
        tuples = np.unravel_index(np.arange(block.start, block.stop), shape)
        yield block, np.ravel_multi_index(np.sort(tuples, axis=0), shape)


@dataclass(frozen=True)
class WeakSymmetryCheck:
    """Outcome of the exact weak-symmetry test, and the largest index-orbit spread."""

    ok: bool
    max_residual: float
    threshold: float
    tol: float
    orbit_spread: float

    @property
    def symmetric(self) -> bool:
        """Entries invariant under every permutation of the index tuple, up to
        ``SYMMETRY_TOL``."""
        return self.orbit_spread <= SYMMETRY_TOL


def weak_symmetry_check(A: Tensor) -> WeakSymmetryCheck:
    """Exact test of the gradient identity grad(A x^m) = m * A x^(m-1).

    Coefficient by coefficient the identity says: for every row i and tail
    tuple t, the mean of a[i, .] over the permutations of t equals the mean
    of a over the permutations of (i, t).  One pass over the entries keyed by
    (row, sorted tail) gives every tail orbit's mean, max and min.  The orbit
    of a sorted m-tuple s is the union over p of {s[p]} x (the orbit of s
    without s[p]), so the m tail orbits at (s[p], s without s[p]) give its
    mean and its exact spread (max - min) with no second pass.
    ``max_residual`` is the largest difference of the two means, and the
    verdict compares it against ``WEAK_SYMMETRY_TOL * (1 + max |entry|)``.
    """
    m, n = A.order, A.dim
    tail_shape = (n,) * (m - 1)
    keys = np.concatenate([keys for _, keys in _orbit_key_blocks(tail_shape)])
    sorted_flat = np.flatnonzero(keys == np.arange(keys.size))
    # rank[f]: column of tail f's sorted tuple among the sorted tails (in
    # lexicographic order).  tables[:, i, r]: mean, max and min of a[i, .]
    # over the orbit of sorted tail r, counts[r] tails; a pass per row builds
    # no index array the size of the tensor
    rank = np.searchsorted(sorted_flat, keys)
    tails = np.unravel_index(sorted_flat, tail_shape)
    counts = np.bincount(rank)
    by_rank, starts = np.argsort(rank, kind="stable"), np.cumsum(counts) - counts
    # means of entries scaled by a power of two: exact, and no sum of m! of them overflows
    scale = 2.0 ** min(0, 1020 - math.frexp(A.max_abs_entry())[1] - math.factorial(m).bit_length())
    tables = np.empty((3, n, sorted_flat.size))
    for i, row in enumerate(A.entries.reshape(n, -1)):
        tables[0, i] = np.bincount(rank, row * scale, sorted_flat.size)
        grouped = row[by_rank]
        tables[1:, i] = np.maximum.reduceat(grouped, starts), np.minimum.reduceat(grouped, starts)
    tables[0] /= counts
    tables = tables.reshape(3, -1)  # column i * orbits + r

    worst = spread = 0.0
    step = max(1, _ORBIT_BLOCK // sorted_flat.size)
    for start in range(0, n, step):
        # every sorted m-tuple is s = (i, t) with i <= t[0]
        i, r = np.nonzero(np.arange(start, min(start + step, n))[:, None] <= tails[0])
        s = np.stack([i + start, *(t[r] for t in tails)])
        # (m, 3, tuples): the tables at (s[p], s without s[p])
        cols = [s[p] * sorted_flat.size + rank[np.ravel_multi_index(np.delete(s, p, 0), tail_shape)]
                for p in range(m)]
        at = np.stack([tables.take(c, axis=1) for c in cols])
        worst = max(worst, float(np.max(np.abs(at[:, 0] - at[:, 0].mean(axis=0)))))
        with np.errstate(over="ignore"):  # a spread beyond the largest double is inf
            spread = max(spread, float(np.max(at[:, 1].max(axis=0) - at[:, 2].min(axis=0))))
    worst /= scale
    threshold = WEAK_SYMMETRY_TOL * (1.0 + A.max_abs_entry())
    return WeakSymmetryCheck(worst <= threshold, worst, threshold, WEAK_SYMMETRY_TOL, spread)


# --------------------------------------------------------------------------
# Text format
#
#   line 1:  tensor m=<order> n=<dim> [symmetric]
#   then:    <i_1> <i_2> ... <i_m> <value>     (1-based indices)
#
# '#' starts a comment, blank lines are ignored, unlisted entries are zero.
# With the `symmetric` flag each record is one orbit representative and its
# value is propagated unchanged to every distinct permutation of the tuple.
# --------------------------------------------------------------------------


# raw lines per parser block: bounds the record array numpy's reader builds
_PARSE_BLOCK = 8192


def _reads_float_spelled_integers() -> bool:
    """True if numpy's reader accepts "1.5" for an integer field, as numpy 1.x
    does (truncated, with a DeprecationWarning); newer numpy refuses it."""
    try:
        np.loadtxt(["1.5"], dtype=np.intp)
    except ValueError:
        return False
    except Warning:  # that DeprecationWarning under an "error" filter
        pass
    return True


# a line numpy's reader might not read as the per-line reader does: not blank,
# a comment, or m integers of at most 9 ASCII digits (no int32 overflow) and a value
_ODD_INDEX_LINE = r"\n(?![ \t]*(?:#|\n|$)|[ \t]*(?:[+-]?[0-9]{{1,9}}[ \t]+){{{m}}}[^\s#])"
# where numpy's reader truncates float-spelled integers, such a line sends its
# block to the per-line reader
_SCREEN_INDICES = _reads_float_spelled_integers()
_RECORD_LINE = re.compile(r"\n[^\S\n]*[^\s#]")


def _read_header(line: str, lineno: int) -> tuple[int, int, bool]:
    match = _HEADER_RE.match(line)
    if match is None:
        raise TensorFormatError(
            f"malformed header {line!r}, expected 'tensor m=<order> n=<dim> [symmetric]'",
            lines=(lineno,),
        )
    digits = [match.group(k).lstrip("0") or "0" for k in (1, 2)]
    for name, d in zip("mn", digits):
        # a size with more digits than the cap exceeds it; int() would refuse
        # one of over 4300 digits with a plain ValueError
        if len(d) > len(str(MAX_DENSE_ENTRIES)):
            raise TensorFormatError(
                f"dense tensor too large: {name} has {len(d)} digits", lines=(lineno,)
            )
    order, dim = map(int, digits)
    if order < 2 or dim < 2:
        raise TensorFormatError(
            f"tensor needs order >= 2 and dim >= 2, got m={order}, n={dim}",
            lines=(lineno,),
        )
    if _too_large(order, dim):
        raise TensorFormatError(
            f"dense tensor too large: {dim}**{order} > {MAX_DENSE_ENTRIES}",
            lines=(lineno,),
        )
    return order, dim, match.group(3) is not None


def _read_record(raw: str, lineno: int, order: int, dim: int):
    """(1-based indices, value) of one body line, None for a blank or comment
    line; a malformed line raises its TensorFormatError."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    tokens = line.split()
    if len(tokens) != order + 1:
        raise TensorFormatError(
            f"expected {order} indices and a value, got {len(tokens)} fields",
            lines=(lineno,),
        )
    try:
        idx = tuple(int(t) for t in tokens[:-1])
    except ValueError:
        raise TensorFormatError(f"non-integer index in {line!r}", lines=(lineno,)) from None
    for i in idx:
        if not 1 <= i <= dim:
            raise TensorFormatError(f"index {i} out of range 1..{dim}", lines=(lineno,))
    try:
        value = float(tokens[-1])
    except ValueError:
        raise TensorFormatError(f"bad value {tokens[-1]!r}", lines=(lineno,)) from None
    if not math.isfinite(value):
        raise TensorFormatError(f"non-finite value {tokens[-1]!r}", lines=(lineno,))
    return idx, value


def _parse_block(lines: list[str], order: int, dim: int):
    """((records, order) 1-based indices, values) of a block of body lines from
    numpy's C reader; None if it refuses the block, or an index is outside
    1..dim or a value not finite.  No warning filter is touched or relied on."""
    text = "\n" + "\n".join(lines)
    if _SCREEN_INDICES and re.search(_ODD_INDEX_LINE.format(m=order), text):
        return None
    if _RECORD_LINE.search(text) is None:  # numpy's reader would warn "no data"
        return np.zeros((0, order), np.intp), np.zeros(0)
    dtype = [("i", np.intp, (order,)), ("v", float)]
    try:
        rec = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
    except ValueError:  # a spelling only Python reads, a float index, a wrong field count
        return None
    idx, values = rec["i"], rec["v"]
    if rec.size == 0 or idx.min() < 1 or idx.max() > dim or not np.all(np.isfinite(values)):
        return None
    return idx, values.copy()  # a view would keep the block's records alive


def parse_tensor(source) -> Tensor:
    """Parse the tensor text format from a string or a readable file object.

    The body is read in blocks of ``_PARSE_BLOCK`` lines, each by numpy's C
    reader into one record array; a block it refuses, or with a bad index or
    value, is read line by line with ``int()`` and ``float()``, which set the
    spellings accepted, so an error names its first bad line.  Records are
    grouped by flat index (by orbit key with the ``symmetric`` flag) with a
    stable sort: the first record of a group gives the entry, and a later one
    more than 1e-12 away from it is a conflict, named by its record's index
    tuple (sorted with the ``symmetric`` flag).  Parse errors win over conflicts.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = text.splitlines()
    for head, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if line:
            break
    else:
        raise TensorFormatError("empty input: missing tensor header")
    order, dim, symmetric = _read_header(line, head + 1)
    shape = (dim,) * order

    keys, values = [np.zeros(0, np.intp)], [np.zeros(0)]
    for start in range(head + 1, len(lines), _PARSE_BLOCK):
        block = lines[start : start + _PARSE_BLOCK]
        parsed = _parse_block(block, order, dim)
        if parsed is None:
            read = [_read_record(raw, start + k + 1, order, dim) for k, raw in enumerate(block)]
            read = [r for r in read if r is not None]
            parsed = np.array([r[0] for r in read], np.intp), np.array([r[1] for r in read])
        idx, vals = parsed
        idx = idx.reshape(-1, order) - 1
        if symmetric:
            idx.sort(axis=1)
        keys.append(np.ravel_multi_index(idx.T, shape))
        values.append(vals)

    # perm[k]: ordinal in file order of the k-th record by key
    keys = np.concatenate(keys)
    perm = np.argsort(keys, kind="stable")
    keys, values = keys[perm], np.concatenate(values)[perm]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    group_first = np.maximum.accumulate(np.where(first, np.arange(keys.size), 0))
    with np.errstate(over="ignore"):
        conflict = np.abs(values - values[group_first]) > 1e-12
    if np.any(conflict):
        k = np.flatnonzero(conflict)[np.argmin(perm[conflict])]
        g = group_first[k]
        idx = " ".join(str(i + 1) for i in np.unravel_index(keys[k], shape))
        body = [j for j in range(head + 1, len(lines)) if lines[j].split("#", 1)[0].strip()]
        raise TensorFormatError(
            f"conflicting values {float(values[g])!r} and {float(values[k])!r} for entry {idx}",
            lines=(body[perm[g]] + 1, body[perm[k]] + 1),
        )

    keys, values = keys[first], values[first]
    del perm, first, group_first, conflict  # before the dense array is allocated
    arr = np.zeros(dim**order)
    arr[keys] = values
    if symmetric:
        for block, orbit_keys in _orbit_key_blocks(shape):
            arr[block] = arr[orbit_keys]
    return Tensor._adopt(arr.reshape(shape))


def serialize_tensor(A: Tensor) -> str:
    """Dense tensor back to the text format: every entry that is not +0, in
    lexicographic index order, with 17-significant-digit values.  Negative
    zero is listed (as ``-0``), so parsing the text reproduces the entry
    array bitwise."""
    e = A.entries.ravel()
    flat = np.flatnonzero((e != 0) | np.signbit(e))
    rows = (np.stack(np.unravel_index(flat, A.entries.shape), axis=1) + 1).tolist()
    lines = [f"tensor m={A.order} n={A.dim}"]
    lines += [f"{' '.join(map(str, idx))} {v:.17g}" for idx, v in zip(rows, e[flat].tolist())]
    return "\n".join(lines) + "\n"


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh)
