"""Dense real tensors of order m, dimension n, and their multilinear operations.

A tensor here is a dense array of n**m real entries addressed by an m-tuple of
indices.  Indices are 1-based in the text format only; ``entries`` takes them
0-based, and the parser and serializer are the only code that translates
between the two.
"""

import itertools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

# Dense storage is deliberate: the problems this library targets are desk
# sized, and a dense array keeps the row-sum splits free of index bookkeeping.
MAX_DENSE_ENTRIES = 10**8

_HEADER_RE = re.compile(r"^tensor\s+m=(\d+)\s+n=(\d+)(\s+symmetric)?\s*$")


def _check_shape(order: int, dim: int) -> None:
    """Refuse order or dim below 2, and dim**order > MAX_DENSE_ENTRIES without
    the power at a huge order: from the cap's bit length on, 2**order alone
    exceeds it."""
    if order < 2 or dim < 2:
        raise ValueError(f"tensor needs order >= 2 and dim >= 2, got m={order}, n={dim}")
    if order >= MAX_DENSE_ENTRIES.bit_length() or dim**order > MAX_DENSE_ENTRIES:
        raise ValueError(f"dense tensor too large: {dim}**{order} > {MAX_DENSE_ENTRIES}")


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
        _check_shape(order, dim)
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


# sorted m-tuples per block of `weak_symmetry_check`'s pass over them (whole
# rows of sorted tails): bounds its index arrays at a few ints per tuple
_ORBIT_BLOCK = 65536


def _fill_orbits(arr: np.ndarray) -> None:
    """Set every entry of the (n,) * m array ``arr`` to its entry at the sorted
    index tuple, in place.

    The bubble-sort network sorts a tuple by compare-exchanges of adjacent
    positions (p, p + 1).  Its exchanges run here in reverse order, and
    exchange (p, p + 1) copies each slab i_p = a, i_(p+1) < a from its mirror
    i_p < a, i_(p+1) = a, which it never writes.  Each entry then holds the
    entry at the tuple the exchanges not yet run would sort its tuple to;
    after the last, at its sorted tuple."""
    m, n = arr.ndim, len(arr)
    for top in range(1, m):
        for p in range(top - 1, -1, -1):
            lead = (slice(None),) * p
            for a in range(1, n):
                arr[(*lead, a, slice(a))] = arr[(*lead, slice(a), a)]


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
    (row, sorted tail) gives every tail orbit's mean (a ``bincount``), max and
    min (an unbuffered ``np.maximum.at`` / ``np.minimum.at`` scatter from -inf
    and +inf, with no sort).  The orbit of a sorted m-tuple s is the union
    over p of {s[p]} x (the orbit of s without s[p]), so the m tail orbits at
    (s[p], s without s[p]) give its mean and its exact spread (max - min)
    with no second pass.
    ``max_residual`` is the largest difference of the two means, and the
    verdict compares it against ``WEAK_SYMMETRY_TOL * (1 + max |entry|)``.
    """
    m, n = A.order, A.dim
    tail_shape = (n,) * (m - 1)
    # keys[f]: flat index of tail f's sorted tuple
    keys = np.arange(n ** (m - 1)).reshape(tail_shape)
    _fill_orbits(keys)
    keys = keys.ravel()
    sorted_flat = np.flatnonzero(keys == np.arange(keys.size))
    orbits = sorted_flat.size
    # rank[f]: column of tail f's sorted tuple among the sorted tails (in
    # lexicographic order).  tables[:, i, r]: mean, max and min of a[i, .]
    # over the orbit of sorted tail r, counts[r] tails; a pass per row builds
    # no index array the size of the tensor
    rank = np.searchsorted(sorted_flat, keys)
    tails = np.unravel_index(sorted_flat, tail_shape)
    counts = np.bincount(rank)
    # means of entries scaled by a power of two: exact, and no sum of m! of them overflows
    scale = 2.0 ** min(0, 1020 - math.frexp(A.max_abs_entry())[1] - math.factorial(m).bit_length())
    tables = np.empty((3, n, orbits))
    tables[1], tables[2] = -np.inf, np.inf
    for i, row in enumerate(A.entries.reshape(n, -1)):
        tables[0, i] = np.bincount(rank, row * scale, orbits)
        np.maximum.at(tables[1, i], rank, row)
        np.minimum.at(tables[2, i], rank, row)
    tables[0] /= counts
    tables = tables.reshape(3, -1)  # column i * orbits + r
    # drop[q][r]: flat index of sorted tail r without its position q, among
    # the (m-2)-tuples (all zeros at m = 2)
    drop = [sorted_flat // n ** (m - 1 - q) * n ** (m - 2 - q) + sorted_flat % n ** (m - 2 - q)
            for q in range(m - 1)]

    worst = spread = 0.0
    step = max(1, _ORBIT_BLOCK // orbits)
    for start in range(0, n, step):
        # every sorted m-tuple is s = (i, t) with i <= t[0]
        i, r = np.nonzero(np.arange(start, min(start + step, n))[:, None] <= tails[0])
        i += start
        # (3, m, tuples): the tables at (s[p], s without s[p]); s without s[0]
        # is tail r, and s without s[q+1] is i followed by tail r without q
        head = i * n ** (m - 2)
        cols = np.stack([i * orbits + r,
                         *(t[r] * orbits + rank[head + d[r]] for t, d in zip(tails, drop))])
        at = tables.take(cols, axis=1)
        worst = max(worst, float(np.max(np.abs(at[0] - at[0].mean(axis=0)))))
        with np.errstate(over="ignore"):  # a spread beyond the largest double is inf
            spread = max(spread, float(np.max(at[1].max(axis=0) - at[2].min(axis=0))))
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


# characters from which `load_tensor` may hand a file's body to numpy's
# reader by path.  On full listings of orders 2 and 3 the path call cost
# about 40 us more per file; the routes broke even near 22000 characters,
# and from 45000 to 900000 the path route took 7-17% less time
_READ_FROM_PATH = 32768
# line breaks of str.splitlines that numpy's reader takes for spaces
_NUMPY_SPACES = "\v\f\x1c\x1d\x1e"
# suffixes numpy's reader decompresses when it opens a path
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# a line that holds the header or a record: neither blank nor only a comment
_RECORD_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.M)


def _read_header(lines) -> tuple[int, int, int, bool]:
    """(0-based line index, order, dim, symmetric flag) of the header, the
    first of ``lines`` that is neither blank nor only a comment."""
    for head, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if line:
            break
    else:
        raise TensorFormatError("empty input: missing tensor header")
    match = _HEADER_RE.match(line)
    if match is None:
        raise TensorFormatError(
            f"malformed header {line!r}, expected 'tensor m=<order> n=<dim> [symmetric]'",
            lines=(head + 1,),
        )
    digits = [match.group(k).lstrip("0") or "0" for k in (1, 2)]
    for name, d in zip("mn", digits):
        # a size with more digits than the cap exceeds it; int() would refuse
        # one of over 4300 digits with a plain ValueError
        if len(d) > len(str(MAX_DENSE_ENTRIES)):
            raise TensorFormatError(
                f"dense tensor too large: {name} has {len(d)} digits", lines=(head + 1,)
            )
    order, dim = map(int, digits)
    try:
        _check_shape(order, dim)
    except ValueError as exc:
        raise TensorFormatError(str(exc), lines=(head + 1,)) from None
    return head, order, dim, match.group(3) is not None


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


def _load_records(source, order: int, dim: int, skiprows: int):
    """((records, order) 1-based indices, values) of the lines after the
    first ``skiprows`` of ``source``, a list of lines or a file's path, from
    numpy's C reader; None if it refuses them, or an index is outside 1..dim
    or a value not finite.  The caller has found a record line: on none,
    numpy warns "no data".  No warning filter is touched or relied on."""
    dtype = [("i", np.intp, (order,)), ("v", float)]
    try:
        rec = np.loadtxt(
            source, dtype=dtype, comments="#", skiprows=skiprows, ndmin=1, encoding="utf-8"
        )
    except ValueError:  # a spelling only Python reads, a float index, a wrong field count
        return None
    idx, values = rec["i"], rec["v"]
    if rec.size == 0 or idx.min() < 1 or idx.max() > dim or not np.all(np.isfinite(values)):
        return None
    return idx, values.copy()  # a view would keep the records alive


def _parse(text: str, path=None) -> Tensor:
    """The tensor of ``text``.  numpy's reader reads the body in one call: by
    ``path``, given that of the file that holds it with \\n its only line
    break, and from the text's lines otherwise.  A body it refuses is read
    line by line."""
    lines = None
    if path is None:
        lines = text.splitlines()
        head, order, dim, symmetric = _read_header(lines)
        found = any(_RECORD_LINE.match(line) for line in itertools.islice(lines, head + 1, None))
    else:
        found = _RECORD_LINE.search(text)
        end = text.find("\n", found.start()) if found else -1
        if end < 0:  # no line after the header's
            end = len(text)
        head, order, dim, symmetric = _read_header(text[:end].splitlines())
        found = _RECORD_LINE.search(text, end)
    shape = (dim,) * order
    parsed = _load_records(path or lines, order, dim, skiprows=head + 1) if found else None
    if parsed is None:
        lines = text.splitlines() if lines is None else lines
        numbered = enumerate(itertools.islice(lines, head + 1, None), head + 2)
        read = [r for r in (_read_record(raw, k, order, dim) for k, raw in numbered) if r is not None]
        parsed = np.array([r[0] for r in read], np.intp), np.array([r[1] for r in read])
        del read
    idx, values = parsed
    del parsed
    # keys: flat index of each record's entry (of its sorted tuple with the flag)
    idx = idx.reshape(-1, order)
    idx -= 1
    if symmetric:
        idx.sort(axis=1)
    keys = np.ravel_multi_index(idx.T, shape)
    del idx  # a view of numpy's record array

    # perm[k]: ordinal in file order of the k-th record by key
    perm = np.argsort(keys, kind="stable")
    keys = keys[perm]
    values = values[perm]
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    if not first.all():  # a key repeats
        group_first = np.maximum.accumulate(np.where(first, np.arange(keys.size), 0))
        with np.errstate(over="ignore"):
            conflict = np.abs(values - values[group_first]) > 1e-12
        if np.any(conflict):
            k = np.flatnonzero(conflict)[np.argmin(perm[conflict])]
            g = group_first[k]
            idx = " ".join(str(i + 1) for i in np.unravel_index(keys[k], shape))
            lines = text.splitlines() if lines is None else lines
            body = [j for j in range(head + 1, len(lines)) if lines[j].split("#", 1)[0].strip()]
            raise TensorFormatError(
                f"conflicting values {float(values[g])!r} and {float(values[k])!r} for entry {idx}",
                lines=(body[perm[g]] + 1, body[perm[k]] + 1),
            )
        del group_first, conflict
        keys = keys[first]
        values = values[first]
    del perm, first  # before the dense array is allocated
    arr = np.zeros(dim**order)
    arr[keys] = values
    if symmetric:
        _fill_orbits(arr.reshape(shape))
    return Tensor._adopt(arr.reshape(shape))


def parse_tensor(text: str) -> Tensor:
    """Parse the tensor text format from a string; ``load_tensor`` reads a file.

    numpy's C reader reads the body's lines in one call into one record
    array; a body it refuses, or with a bad index or value, is read line by
    line with ``int()`` and ``float()``, which set the spellings accepted, so
    an error names its first bad line.  Records are grouped by flat index (by
    orbit key with the ``symmetric`` flag) with a stable sort: the first
    record of a group gives the entry, and a later one more than 1e-12 away
    from it is a conflict, named by its record's index tuple (sorted with the
    ``symmetric`` flag).  Parse errors win over conflicts.  With the flag,
    every entry then takes its sorted tuple's entry in place.
    """
    return _parse(text)


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
    """The tensor in the UTF-8 file at ``path``, read with universal newlines
    and without a leading byte-order mark.

    A file of at least ``_READ_FROM_PATH`` characters, pure ASCII and with
    none of ``_NUMPY_SPACES``, has the same lines for numpy's reader as for
    ``str.splitlines``; its body goes to numpy's reader by path, which reads
    the file in chunks and builds no string per line.  Any other file goes to
    it as ``parse_tensor`` hands it a text: as a list of lines.  Either way a
    body numpy refuses is read line by line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    by_path = (
        isinstance(path, (str, os.PathLike))
        and len(text) >= _READ_FROM_PATH
        and text.isascii()
        and not any(c in text for c in _NUMPY_SPACES)
        and not os.fsdecode(path).endswith(_COMPRESSED)
    )
    # absolute, so that numpy's opener takes no path for a URL
    return _parse(text, os.path.abspath(os.fsdecode(path)) if by_path else None)
