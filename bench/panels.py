"""Seeded tensor panels for the benchmark workloads.

A panel is the list of tensor files one round of a workload takes through
the CLI.  The shapes and kinds are fixed per workload; ``--seed`` only draws
the entries, so every seed costs about the same and the same seed always
gives the same files.  The dense array of each case is kept in memory: the
reference checks recompute everything from it, never from zeigloc.
"""

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("circle-n2", "power-small-n", "dense-bounds")

VERIFY = ("verify", "{path}", "--format", "structured")
# sshopm restarts per tensor: 10 instead of the CLI's 50, so that a round
# holds enough tensors for its cost to be steady from seed to seed
POWER_VERIFY = VERIFY + ("--starts", "10")
BOUNDS = ("bounds", "{path}", "--format", "structured")
SETS = ("sets", "{path}", "--format", "structured")

# (order m, dimension n) grids
CIRCLE_ORDERS = (3, 4, 5, 6, 7, 8)
CIRCLE_COPIES = 3  # tensors per order and kind
POWER_SHAPES = ((3, 3), (3, 5), (3, 8), (3, 10), (4, 3), (4, 4), (4, 6), (4, 8), (5, 3), (5, 4), (6, 3))
POWER_COPIES = 12  # symmetric tensors per shape
POWER_SIGNED = ((3, 10), (4, 8))
DENSE_SHAPES = ((6, 7), (8, 4), (4, 18), (3, 50))
# a symmetric tensor as a full listing: with it the panel has an odd number
# of files, so the median operation is one file's time, not the mean of two
DENSE_SYMMETRIC_FULL = (5, 10)

# symmetric order-4 form of c^4 + c^3 s in coordinates rotated by 0.3 rad:
# lambda = 0 at x = (-sin 0.3, cos 0.3) is a double root of the circle sweep
# function, which the sweep does not see
KNOWN_FAULT_ANGLE = 0.3


@dataclass(frozen=True)
class Case:
    name: str
    arr: np.ndarray
    symmetric: bool  # built symmetric; the other generators are almost surely not
    orbit: bool = False  # written as `symmetric`-flag orbit representatives
    known_fault: bool = False

    @property
    def nonnegative(self) -> bool:
        # from the entries: a small signed draw can come out all nonnegative
        return bool(np.all(self.arr >= 0.0))

    @property
    def order(self) -> int:
        return self.arr.ndim

    @property
    def dim(self) -> int:
        return self.arr.shape[0]


def _orbit_keys(m: int, n: int) -> np.ndarray:
    """Flat index of the sorted (orbit representative) tuple, per entry."""
    idx = np.indices((n,) * m).reshape(m, -1)
    return np.ravel_multi_index(np.sort(idx, axis=0), (n,) * m)


def symmetric_nonnegative(rng, m: int, n: int) -> np.ndarray:
    """Exactly symmetric: every entry copies its orbit representative."""
    return rng.random(n**m)[_orbit_keys(m, n)].reshape((n,) * m)


def general(rng, m: int, n: int, signed: bool) -> np.ndarray:
    shape = (n,) * m
    return rng.standard_normal(shape) if signed else rng.random(shape)


def known_fault_tensor() -> np.ndarray:
    th = KNOWN_FAULT_ANGLE
    c = np.array([math.cos(th), math.sin(th)])
    s = np.array([-math.sin(th), math.cos(th)])
    cccs = np.einsum("i,j,k,l->ijkl", c, c, c, s)
    sym = sum(np.transpose(cccs, p) for p in itertools.permutations(range(4))) / 24.0
    return np.einsum("i,j,k,l->ijkl", c, c, c, c) + sym


def build(workload: str, seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cases = []
    if workload == "circle-n2":
        for copy in range(CIRCLE_COPIES):
            for m in CIRCLE_ORDERS:
                sym = symmetric_nonnegative(rng, m, 2)
                cases.append(Case(f"sym-m{m}-{copy}", sym, True))
                signed = general(rng, m, 2, signed=True)
                cases.append(Case(f"signed-m{m}-{copy}", signed, False))
        cases.append(Case("double-root-m4", known_fault_tensor(), True, known_fault=True))
    elif workload == "power-small-n":
        for copy in range(POWER_COPIES):
            for m, n in POWER_SHAPES:
                arr = symmetric_nonnegative(rng, m, n)
                cases.append(Case(f"sym-m{m}-n{n}-{copy}", arr, True))
        for m, n in POWER_SIGNED:
            cases.append(Case(f"signed-m{m}-n{n}", general(rng, m, n, signed=True), False))
    elif workload == "dense-bounds":
        for m, n in DENSE_SHAPES:
            cases.append(Case(f"full-m{m}-n{n}", general(rng, m, n, signed=False), False))
            cases.append(
                Case(f"orbit-m{m}-n{n}", symmetric_nonnegative(rng, m, n), True, orbit=True)
            )
        m, n = DENSE_SYMMETRIC_FULL
        cases.append(Case(f"full-sym-m{m}-n{n}", symmetric_nonnegative(rng, m, n), True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def commands(workload: str) -> tuple[tuple[str, ...], ...]:
    return {"circle-n2": (VERIFY,), "power-small-n": (POWER_VERIFY,), "dense-bounds": (BOUNDS, SETS)}[
        workload
    ]


def tensor_text(case: Case) -> str:
    """The tensor text format: every entry, or one record per orbit."""
    m, n = case.order, case.dim
    flat = case.arr.reshape(-1)
    header = f"tensor m={m} n={n}" + (" symmetric" if case.orbit else "")
    if case.orbit:
        keep = np.flatnonzero(_orbit_keys(m, n) == np.arange(n**m))
    else:
        keep = np.arange(n**m)
    # both enumerations run in lexicographic order, the order of ``keep``
    labels = [str(i) for i in range(1, n + 1)]
    if case.orbit:
        tuples = itertools.combinations_with_replacement(labels, m)
    else:
        tuples = itertools.product(labels, repeat=m)
    body = [f"{' '.join(t)} {v!r}" for t, v in zip(tuples, flat[keep].tolist())]
    return "\n".join([header, *body]) + "\n"


def write(cases: list[Case], directory: Path) -> list[Path]:
    paths = []
    for case in cases:
        path = directory / f"{case.name}.txt"
        path.write_text(tensor_text(case), encoding="utf-8")
        paths.append(path)
    return paths
