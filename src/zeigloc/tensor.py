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
    shape, values = A.entries.shape, A.entries.ravel()
    hi = np.full(values.size, -np.inf)
    lo = np.full(values.size, np.inf)
    # blocks of 2^16 entries bound the index arrays, order ints per entry
    for flat in np.array_split(np.arange(values.size), values.size // 65536 + 1):
        keys = np.ravel_multi_index(np.sort(np.unravel_index(flat, shape), axis=0), shape)
        np.maximum.at(hi, keys, values[flat])
        np.minimum.at(lo, keys, values[flat])
    return bool(np.max(hi - lo) <= tol)


@dataclass(frozen=True)
class WeakSymmetryCheck:
    """Outcome of the sampled weak-symmetry test, kept for reproducible reports."""

    ok: bool
    max_residual: float
    threshold: float
    trials: int
    tol: float
    seed: int


def weak_symmetry_check(
    A: Tensor, trials: int = 20, tol: float = 1e-9, seed: int = 42
) -> WeakSymmetryCheck:
    """Randomized test of the gradient identity grad(A x^m) = m * A x^(m-1).

    Both sides are degree m-1 polynomials, so agreement at ``trials`` random
    unit vectors certifies the identity except on a zero-measure event.  The
    verdict compares the worst componentwise residual against
    ``tol * (1 + max |entry|)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(A.dim)
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            x = np.zeros(A.dim)
            x[0] = 1.0
        else:
            x = x / nrm
        res = float(np.max(np.abs(gradient(A, x) - A.order * apply(A, x))))
        worst = max(worst, res)
    threshold = tol * (1.0 + A.max_abs_entry())
    return WeakSymmetryCheck(
        ok=worst <= threshold,
        max_residual=worst,
        threshold=threshold,
        trials=trials,
        tol=tol,
        seed=seed,
    )


def is_weakly_symmetric(A: Tensor, trials: int = 20, tol: float = 1e-9, seed: int = 42) -> bool:
    return weak_symmetry_check(A, trials=trials, tol=tol, seed=seed).ok


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


def parse_tensor(source) -> Tensor:
    """Parse the tensor text format from a string or a readable file object."""
    text = source.read() if hasattr(source, "read") else source
    header = None
    records = []  # (EntryRecord, line_number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            match = _HEADER_RE.match(line)
            if match is None:
                raise TensorFormatError(
                    f"malformed header {line!r}, expected 'tensor m=<order> n=<dim> [symmetric]'",
                    lines=(lineno,),
                )
            order, dim = int(match.group(1)), int(match.group(2))
            symmetric = match.group(3) is not None
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
            header = (order, dim, symmetric)
            continue
        order, dim, _ = header
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
        records.append((EntryRecord(idx, value), lineno))

    if header is None:
        raise TensorFormatError("empty input: missing tensor header")
    order, dim, symmetric = header

    seen: dict[tuple[int, ...], tuple[float, int]] = {}
    for record, lineno in records:
        if symmetric:
            positions = set(itertools.permutations(record.indices))
        else:
            positions = {record.indices}
        for pos in positions:
            pos0 = tuple(i - 1 for i in pos)
            if pos0 in seen:
                old_value, old_line = seen[pos0]
                if abs(old_value - record.value) > 1e-12:
                    raise TensorFormatError(
                        f"conflicting values {old_value!r} and {record.value!r} "
                        f"for entry {' '.join(str(i) for i in pos)}",
                        lines=(old_line, lineno),
                    )
                # agreeing duplicate: keep the first, never sum
            else:
                seen[pos0] = (record.value, lineno)

    arr = np.zeros((dim,) * order)
    for pos0, (value, _) in seen.items():
        arr[pos0] = value
    return Tensor(order, dim, arr)


def nonzero_records(A: Tensor) -> list[EntryRecord]:
    """Entries worth listing in the text format, in lexicographic index order.

    Negative zero is kept (it serializes as ``-0``) so that a parse after
    serialize reproduces the entry array bitwise.
    """
    out = []
    for pos in np.ndindex(A.entries.shape):
        v = float(A.entries[pos])
        if v != 0.0 or math.copysign(1.0, v) < 0:
            out.append(EntryRecord(tuple(i + 1 for i in pos), v))
    return out


def serialize_tensor(A: Tensor) -> str:
    """Dense tensor back to the text format with 17-significant-digit values."""
    lines = [f"tensor m={A.order} n={A.dim}"]
    for record in nonzero_records(A):
        head = " ".join(str(i) for i in record.indices)
        lines.append(f"{head} {record.value:.17g}")
    return "\n".join(lines) + "\n"


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh)
