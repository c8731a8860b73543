"""Dense real tensors of order m, dimension n, and their multilinear operations.

A tensor here is a dense array of n**m real entries addressed by an m-tuple of
indices.  Indices are 1-based in every external interface (the text format and
the ``entry`` accessor) and 0-based internally; the parser and serializer are
the only places that translate between the two.
"""

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

# Dense storage is deliberate: the problems this library targets are desk
# sized, and a dense array keeps the row-sum splits free of index bookkeeping.
MAX_DENSE_ENTRIES = 10**8

_HEADER_RE = re.compile(r"^tensor\s+m=(\d+)\s+n=(\d+)(\s+symmetric)?\s*$")


class TensorFormatError(ValueError):
    """Malformed tensor text input.  ``lines`` holds the offending 1-based line numbers."""

    def __init__(self, message, lines=()):
        self.lines = tuple(lines)
        if self.lines:
            noun = "lines" if len(self.lines) > 1 else "line"
            message = f"{message} ({noun} {', '.join(str(k) for k in self.lines)})"
        super().__init__(message)


@dataclass(frozen=True)
class EntryRecord:
    """One sparse record of the text format: a 1-based index tuple and its value."""

    indices: tuple[int, ...]
    value: float


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
        if dim**order > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"dense tensor too large: {dim}**{order} entries exceeds {MAX_DENSE_ENTRIES}"
            )
        arr = np.array(entries, dtype=float)
        if arr.shape != (dim,) * order:
            raise ValueError(f"entries shape {arr.shape} does not match ({dim},) * {order}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite (no NaN or infinity)")
        arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", arr)

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
        return float(np.max(np.abs(self.entries)))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"


def _as_vector(A: Tensor, x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (A.dim,):
        raise ValueError(f"vector length {v.shape} does not match tensor dimension {A.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def apply(A: Tensor, x) -> np.ndarray:
    """Contract the last m-1 indices with x: component i is the sum of
    a[i, i2, ..., im] * x[i2] * ... * x[im] over all tail tuples."""
    v = _as_vector(A, x)
    y = A.entries
    for _ in range(A.order - 1):
        y = np.tensordot(y, v, axes=1)
    return y


def polyval(A: Tensor, x) -> float:
    """Value of the homogeneous degree-m polynomial attached to A at x."""
    v = _as_vector(A, x)
    y = A.entries
    for _ in range(A.order):
        y = np.tensordot(y, v, axes=1)
    return float(y)


def gradient(A: Tensor, x) -> np.ndarray:
    """Exact gradient of ``polyval(A, .)`` at x.

    Component i collects, for each of the m index positions, the contraction
    of the tensor over the other m-1 positions with the index at that
    position held at i.
    """
    v = _as_vector(A, x)
    g = np.zeros(A.dim)
    for pos in range(A.order):
        y = np.moveaxis(A.entries, pos, 0)
        for _ in range(A.order - 1):
            y = np.tensordot(y, v, axes=1)
        g += y
    return g


def is_nonnegative(A: Tensor) -> bool:
    """True iff every entry is >= 0.  Strict sign test, no tolerance."""
    return bool(np.all(A.entries >= 0.0))


def is_symmetric(A: Tensor, tol: float = 1e-12) -> bool:
    """True iff entries are invariant under every permutation of the index tuple.

    The spread (max - min) of each index orbit, keyed by the sorted index
    tuple, is the largest |a[idx] - a[perm(idx)]|, so the verdict is exact.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    values = A.entries.ravel()
    hi = np.full(values.size, -np.inf)
    lo = np.full(values.size, np.inf)
    for block, keys in _orbit_key_blocks(A.entries.shape):
        np.maximum.at(hi, keys, values[block])
        np.minimum.at(lo, keys, values[block])
    return bool(np.max(hi - lo) <= tol)


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
    """Outcome of the exact weak-symmetry test."""

    ok: bool
    max_residual: float
    threshold: float
    tol: float


def weak_symmetry_check(A: Tensor, tol: float = 1e-9) -> WeakSymmetryCheck:
    """Exact test of the gradient identity grad(A x^m) = m * A x^(m-1).

    Coefficient by coefficient the identity says: for every row i and tail
    tuple t, the mean of a[i, .] over the permutations of t equals the mean
    of a over the permutations of (i, t).  The tail means come from one pass
    over the entries keyed by (row, sorted tail).  The mean over the
    permutations of a sorted m-tuple s is the average of the m tail means at
    (s[p], s without s[p]), so it needs no second pass over the entries.
    ``max_residual`` is the largest difference of the two means, and the
    verdict compares it against ``tol * (1 + max |entry|)``.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    m, n = A.order, A.dim
    tail_shape = (n,) * (m - 1)
    keys = np.concatenate([keys for _, keys in _orbit_key_blocks(tail_shape)])
    sorted_flat = np.flatnonzero(keys == np.arange(keys.size))
    # rank[f]: column of tail f's sorted tuple among the sorted tails (in
    # lexicographic order).  means[i, r]: mean of a[i, .] over the orbit of
    # sorted tail r, bincount(rank)[r] tails; a bincount per row builds no
    # index array the size of the tensor
    rank = np.searchsorted(sorted_flat, keys)
    tails = np.unravel_index(sorted_flat, tail_shape)
    means = np.empty((n, sorted_flat.size))
    for i, row in enumerate(A.entries.reshape(n, -1)):
        means[i] = np.bincount(rank, row, sorted_flat.size)
    means /= np.bincount(rank)

    worst = 0.0
    step = max(1, _ORBIT_BLOCK // sorted_flat.size)
    for start in range(0, n, step):
        # every sorted m-tuple is s = (i, t) with i <= t[0]
        i, r = np.nonzero(np.arange(start, min(start + step, n))[:, None] <= tails[0])
        s = np.stack([i + start, *(t[r] for t in tails)])
        tail_means = np.stack(
            [
                means[s[p], rank[np.ravel_multi_index(np.delete(s, p, axis=0), tail_shape)]]
                for p in range(m)
            ]
        )
        worst = max(worst, float(np.max(np.abs(tail_means - tail_means.mean(axis=0)))))
    threshold = tol * (1.0 + A.max_abs_entry())
    return WeakSymmetryCheck(ok=worst <= threshold, max_residual=worst, threshold=threshold, tol=tol)


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


# raw lines per parser block: one block's token strings are the only Python
# objects the parser holds per record
_PARSE_BLOCK = 8192
# a symmetric-flag conflict names the first entry of
# set(itertools.permutations(record)) for orbits up to this size, which covers
# every order up to 8; a larger orbit names the record's own index tuple
_NAMED_ORBIT_MAX = math.factorial(8)


class _IndexTable(dict):
    """Index token to 1-based index: '1'..'n' by lookup, any other spelling
    through int(); an integer out of range maps to 0, failing the block."""

    def __init__(self, dim: int):
        super().__init__((str(i), i) for i in range(1, dim + 1))
        self.dim = dim

    def __missing__(self, token):
        i = int(token)
        return i if 1 <= i <= self.dim else 0


def _read_header(line: str, lineno: int) -> tuple[int, int, bool]:
    match = _HEADER_RE.match(line)
    if match is None:
        raise TensorFormatError(
            f"malformed header {line!r}, expected 'tensor m=<order> n=<dim> [symmetric]'",
            lines=(lineno,),
        )
    order, dim = int(match.group(1)), int(match.group(2))
    if order < 2 or dim < 2:
        raise TensorFormatError(
            f"tensor needs order >= 2 and dim >= 2, got m={order}, n={dim}",
            lines=(lineno,),
        )
    if dim**order > MAX_DENSE_ENTRIES:
        raise TensorFormatError(
            f"dense tensor too large: {dim}**{order} > {MAX_DENSE_ENTRIES}",
            lines=(lineno,),
        )
    return order, dim, match.group(3) is not None


def _parse_record(raw: str, lineno: int, order: int, dim: int):
    """One body line to (1-based index tuple, value), None if it is blank;
    raises the line's TensorFormatError."""
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


def _parse_block(lines: list[str], order: int, index_of: _IndexTable):
    """(offsets of the record lines, (records, order) 1-based indices, values)
    of a block of body lines, or None if any line fails a check."""
    fields = [raw.split("#", 1)[0].split() for raw in lines]
    counts = np.fromiter(map(len, fields), np.intp, len(fields))
    rows = np.flatnonzero(counts)
    if np.any(counts[rows] != order + 1):
        return None
    tokens = list(itertools.chain.from_iterable(fields))
    del fields
    value_tokens = tokens[order :: order + 1]
    del tokens[order :: order + 1]
    try:
        idx = np.fromiter(map(index_of.__getitem__, tokens), np.intp, len(tokens))
        values = np.fromiter(map(float, value_tokens), float, len(value_tokens))
    except ValueError:
        return None
    if not (np.all(idx) and np.all(np.isfinite(values))):
        return None
    return rows, idx.reshape(-1, order), values


def _distinct_permutations(t: tuple):
    """The distinct permutations of t, in the order itertools.permutations(t)
    first yields them: a set built from either iterates in the same order."""
    if not t:
        yield ()
    for v in dict.fromkeys(t):
        k = t.index(v)
        for rest in _distinct_permutations(t[:k] + t[k + 1 :]):
            yield (v, *rest)


def _conflict(first_value, value, idx, symmetric, lines) -> TensorFormatError:
    if symmetric:
        repeats = math.prod(math.factorial(idx.count(i)) for i in set(idx))
        orbit_size = math.factorial(len(idx)) // repeats
        if orbit_size <= _NAMED_ORBIT_MAX:
            idx = next(iter(set(_distinct_permutations(idx))))
    return TensorFormatError(
        f"conflicting values {first_value!r} and {value!r} "
        f"for entry {' '.join(str(i) for i in idx)}",
        lines=lines,
    )


def parse_tensor(source) -> Tensor:
    """Parse the tensor text format from a string or a readable file object.

    The body is read in blocks of ``_PARSE_BLOCK`` lines into index and value
    arrays; a block that fails a check is re-read line by line, so the error
    names its first bad line.  Records are grouped by flat index (by orbit key
    with the ``symmetric`` flag) with a stable sort: the first record of a
    group gives the entry, and a later one more than 1e-12 away from it is a
    conflict.  Parse errors win over conflicts.
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

    index_of = _IndexTable(dim)
    keys, values, linenos = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0, np.intp)]
    for start in range(head + 1, len(lines), _PARSE_BLOCK):
        block = lines[start : start + _PARSE_BLOCK]
        parsed = _parse_block(block, order, index_of)
        if parsed is None:
            for k, raw in enumerate(block):
                _parse_record(raw, start + k + 1, order, dim)
            raise AssertionError("a block failed its checks but none of its lines did")
        rows, idx, vals = parsed
        idx -= 1
        if symmetric:
            idx.sort(axis=1)
        keys.append(np.ravel_multi_index(idx.T, shape))
        values.append(vals)
        linenos.append(rows + (start + 1))

    keys = np.concatenate(keys)
    perm = np.argsort(keys, kind="stable")
    keys, values, linenos = keys[perm], np.concatenate(values)[perm], np.concatenate(linenos)[perm]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    group_first = np.maximum.accumulate(np.where(first, np.arange(keys.size), 0))
    with np.errstate(over="ignore"):
        conflict = np.abs(values - values[group_first]) > 1e-12
    if np.any(conflict):
        k = np.flatnonzero(conflict)[np.argmin(linenos[conflict])]
        g, lineno = group_first[k], int(linenos[k])
        idx, value = _parse_record(lines[lineno - 1], lineno, order, dim)
        raise _conflict(float(values[g]), value, idx, symmetric, (int(linenos[g]), lineno))

    arr = np.zeros(dim**order)
    arr[keys[first]] = values[first]
    if symmetric:
        for block, orbit_keys in _orbit_key_blocks(shape):
            arr[block] = arr[orbit_keys]
    return Tensor(order, dim, arr.reshape(shape))


def _listed_entries(A: Tensor) -> tuple[list[list[int]], list[float]]:
    """1-based index rows and values of the entries the text format lists."""
    e = A.entries.ravel()
    flat = np.flatnonzero((e != 0) | np.signbit(e))
    rows = np.stack(np.unravel_index(flat, A.entries.shape), axis=1) + 1
    return rows.tolist(), e[flat].tolist()


def nonzero_records(A: Tensor) -> list[EntryRecord]:
    """Entries worth listing in the text format, in lexicographic index order.

    Negative zero is kept (it serializes as ``-0``) so that a parse after
    serialize reproduces the entry array bitwise.
    """
    return [EntryRecord(tuple(idx), v) for idx, v in zip(*_listed_entries(A))]


def serialize_tensor(A: Tensor) -> str:
    """Dense tensor back to the text format with 17-significant-digit values."""
    lines = [f"tensor m={A.order} n={A.dim}"]
    lines += [f"{' '.join(map(str, idx))} {v:.17g}" for idx, v in zip(*_listed_entries(A))]
    return "\n".join(lines) + "\n"


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh)
