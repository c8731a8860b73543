"""The array parser and writer against the one-record-at-a-time references.

Valid files must give bitwise-equal entries, malformed files the same
message and line numbers, and the writer the same text.  The seeded panel
runs with the default block size and with blocks of 3 lines, so that block
boundaries fall everywhere.
"""

import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import zeigloc.tensor as tensor_module
from oracles import random_symmetric_tensor, scalar_parse_tensor, scalar_serialize_tensor
from zeigloc.tensor import (
    MAX_DENSE_ENTRIES,
    Tensor,
    TensorFormatError,
    parse_tensor,
    serialize_tensor,
    weak_symmetry_check,
)

SHAPES = ((2, 2), (2, 12), (2, 30), (3, 3), (3, 11), (4, 2), (4, 3), (5, 2))
SEPARATORS = (" ", "  ", "\t", " \t ")
FILLERS = ("", "   ", "\t", "# a comment line", "  # indented comment")
VALUE_SPELLINGS = ("1e3", "-0", "-0.0", "0", "1_0.5", "+2.5", "7", "-1E-3")


def outcome(parse, text):
    try:
        A = parse(text)
    except TensorFormatError as exc:
        return "error", str(exc), exc.lines
    return "ok", A.entries.shape, A.entries.tobytes()


def assert_same_outcome(text):
    want = outcome(scalar_parse_tensor, text)
    assert outcome(parse_tensor, text) == want
    return want


def spell_index(rng, i):
    forms = [str(i), str(i), f"+{i}", f"0{i}"]
    if i >= 10:
        forms.append(f"{str(i)[0]}_{str(i)[1:]}")
    return forms[rng.integers(len(forms))]


def spell_value(rng):
    if rng.random() < 0.3:
        return VALUE_SPELLINGS[rng.integers(len(VALUE_SPELLINGS))]
    v = float(rng.uniform(-2.0, 2.0))
    return (repr(v), f"{v:.17g}", f"{v:.4e}")[rng.integers(3)]


def record_line(rng, indices, value):
    sep = SEPARATORS[rng.integers(len(SEPARATORS))]
    line = sep.join([*(spell_index(rng, i) for i in indices), value])
    if rng.random() < 0.2:
        line = f"  {line}  # trailing comment"
    return line


def records(rng, m, n, symmetric):
    """(indices, value token) of a random subset of entries, or of orbits
    with their representative in a random order, shuffled, with agreeing
    duplicates (another representative for a symmetric file) re-listed."""
    if symmetric:
        tuples = list(itertools.combinations_with_replacement(range(1, n + 1), m))
    else:
        tuples = list(itertools.product(range(1, n + 1), repeat=m))
    out = [(t, spell_value(rng)) for t in tuples if rng.random() < 0.6]
    out = [out[k] for k in rng.permutation(len(out))]
    for k in rng.choice(len(out), size=min(len(out), 3), replace=False):
        t, value = out[k]
        again = float(value) + float(rng.choice([0.0, 4e-13, -9e-13]))
        out.insert(int(rng.integers(k + 1, len(out) + 1)), (t, repr(again)))
    if symmetric:
        out = [(tuple(rng.permutation(t).tolist()), value) for t, value in out]
    return out


def file_text(rng, m, n, symmetric, body):
    head = [FILLERS[k] for k in rng.integers(len(FILLERS), size=int(rng.integers(0, 3)))]
    header = f"tensor m={m} n={n}" + (" symmetric" if symmetric else "")
    lines = [*head, header + ("  # header" if rng.random() < 0.3 else "")]
    for line in body:
        if rng.random() < 0.1:
            lines.append(FILLERS[rng.integers(len(FILLERS))])
        lines.append(line)
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


def bad_lines(m, n):
    ones = ["1"] * (m - 1)
    return [
        " ".join(["1"] * m),
        " ".join(["1"] * (m + 1)) + " 2.0",
        " ".join([*ones, "x", "1.0"]),
        " ".join([*ones, "1.0", "1.0"]),
        " ".join([*ones, str(n + 1), "1.0"]),
        " ".join(["0", *ones, "1.0"]),
        " ".join([*ones, "-2", "1.0"]),
        " ".join([*ones, "99999999999999999999", "1.0"]),
        " ".join([*ones, "1", "abc"]),
        " ".join([*ones, "1", "1,5"]),
        " ".join([*ones, "1", "nan"]),
        " ".join([*ones, "1", "inf"]),
        " ".join([*ones, "1", "-Infinity"]),
    ]


def conflicting(rng, body_records, symmetric):
    """A record re-listed later (in another order of its orbit for a
    symmetric file) with a value beyond 1e-12 of the first one's."""
    k = int(rng.integers(len(body_records)))
    t, value = body_records[k]
    if symmetric:
        t = tuple(rng.permutation(t).tolist())
    return k, (t, repr(float(value) + float(rng.choice([2.5e-12, -0.5, 3.0]))))


def panel(seed):
    """(kind, text) of valid files, files with one or two bad lines, files
    with a conflict and files with a conflict before a bad line."""
    rng = np.random.default_rng(seed)
    for m, n in SHAPES:
        for symmetric in (False, True):
            recs = records(rng, m, n, symmetric)
            lines = [record_line(rng, t, v) for t, v in recs]
            yield "valid", file_text(rng, m, n, symmetric, lines)
            if not recs:
                continue
            bad = bad_lines(m, n)
            one = list(lines)
            one.insert(int(rng.integers(len(one) + 1)), bad[rng.integers(len(bad))])
            yield "bad", file_text(rng, m, n, symmetric, one)
            two = list(one)
            two.insert(int(rng.integers(len(two) + 1)), bad[rng.integers(len(bad))])
            yield "two bad", file_text(rng, m, n, symmetric, two)
            k, extra = conflicting(rng, recs, symmetric)
            clash = list(lines)
            at = int(rng.integers(k + 1, len(clash) + 1))
            clash.insert(at, record_line(rng, *extra))
            yield "conflict", file_text(rng, m, n, symmetric, clash)
            clash.insert(int(rng.integers(at + 1, len(clash) + 1)), bad[rng.integers(len(bad))])
            yield "conflict then bad", file_text(rng, m, n, symmetric, clash)


@pytest.mark.parametrize("block", [3, 8192])
def test_parse_matches_scalar_reader_on_seeded_panel(monkeypatch, block):
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", block)
    seen = {}
    for seed in (20261018, 5):
        for kind, text in panel(seed):
            result = assert_same_outcome(text)
            seen.setdefault(kind, set()).add(result[0])
    # the panel reaches both outcomes where it should
    assert seen["valid"] == {"ok"}
    assert seen["bad"] == seen["two bad"] == seen["conflict then bad"] == {"error"}
    assert seen["conflict"] == {"error"}


def test_panel_holds_negative_zero_and_every_spelling():
    texts = [text for kind, text in panel(20261018) if kind == "valid"]
    joined = "\n".join(texts)
    for token in ("+1", "01", "1_0", "1e3", "-0", "1_0.5", "\t", "#"):
        assert token in joined
    entries = [parse_tensor(t).entries for t in texts]
    assert any(np.any(np.signbit(e) & (e == 0)) for e in entries)


def test_agreeing_duplicate_keeps_the_first_value():
    text = "tensor m=2 n=2\n1 2 1.0\n1 2 1.0000000000009\n1 2 0.9999999999995\n"
    A = parse_tensor(text)
    assert A.entry((1, 2)) == 1.0
    assert outcome(parse_tensor, text) == outcome(scalar_parse_tensor, text)


def test_conflict_is_measured_from_the_first_record():
    # the third line is within 1e-12 of the second but not of the first
    text = "tensor m=2 n=2\n1 2 1.0\n1 2 1.0000000000009\n1 2 1.0000000000015\n"
    kind, message, lines = assert_same_outcome(text)
    assert kind == "error" and lines == (2, 4)
    assert message.startswith("conflicting values 1.0 and 1.0000000000015 for entry 1 2")


def test_earliest_conflict_in_file_order_is_reported():
    # the conflict on entry 2 2 comes first in the file, the one on 1 1 first by index
    text = "tensor m=2 n=2\n2 2 1.0\n2 2 5.0\n1 1 1.0\n1 1 5.0\n"
    assert assert_same_outcome(text) == (
        "error",
        "conflicting values 1.0 and 5.0 for entry 2 2 (lines 2, 3)",
        (2, 3),
    )


def test_symmetric_conflict_names_the_same_entry():
    for rep in ("2 1 3 1", "3 1 1 2", "1 1 2 3", "3 2 1 1"):
        text = f"tensor m=4 n=3 symmetric\n1 1 2 3 0.5\n2 2 2 2 1\n{rep} 0.75\n"
        kind, message, lines = assert_same_outcome(text)
        assert kind == "error" and lines == (2, 4)


def test_symmetric_conflict_in_a_large_orbit_names_the_record():
    # the orbit of 1 1 2 2 3 4 5 6 7 has 9!/4 = 90720 positions; the
    # conflict names the sorted tuple, the orbit's first record
    text = "tensor m=9 n=7 symmetric\n1 1 2 2 3 4 5 6 7 1.0\n2 1 1 2 3 4 5 6 7 2.0\n"
    tracemalloc.start()
    try:
        with pytest.raises(TensorFormatError) as err:
            parse_tensor(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "conflicting values 1.0 and 2.0 for entry 1 1 2 2 3 4 5 6 7 (lines 2, 3)"
    )
    assert peak < 2**20  # neither the 7**9 entries nor the orbit's positions


def test_first_error_in_a_later_block_is_found():
    n = 100
    body = [f"{i} {j} {i + j / 1000}" for i in range(1, n + 1) for j in range(1, n + 1)]
    body[9500] = "5 6 not-a-number"
    text = "tensor m=2 n=100\n" + "\n".join(body) + "\n"
    kind, message, lines = assert_same_outcome(text)
    assert kind == "error" and lines == (9502,)
    assert lines[0] > tensor_module._PARSE_BLOCK
    assert message == "bad value 'not-a-number' (line 9502)"


@pytest.mark.parametrize("block", [4, 8192])
def test_two_bad_lines_report_the_earlier(monkeypatch, block):
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", block)
    body = [f"{i} {j} 1.0" for i in range(1, 4) for j in range(1, 4)]
    body[6] = "1 2 3 4.0"  # field count, line 8
    body[3] = "1 4 1.0"  # out of range, line 5, earlier but a later check
    text = "tensor m=2 n=3\n" + "\n".join(body)
    assert assert_same_outcome(text) == ("error", "index 4 out of range 1..3 (line 5)", (5,))


@pytest.mark.parametrize("block", [2, 8192])
def test_parse_error_wins_over_an_earlier_conflict(monkeypatch, block):
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", block)
    text = "tensor m=2 n=2\n1 1 1.0\n1 1 2.0\n2 2 3.0\n2 1 inf\n"
    assert assert_same_outcome(text) == ("error", "non-finite value 'inf' (line 5)", (5,))


@pytest.mark.parametrize("odd", ["2 3 1_0.5", "2 \u0663 0.5"])
def test_block_numpy_refuses_is_read_line_by_line(monkeypatch, odd):
    # 1_0.5 and the Arabic-Indic digit three are spellings only int() and
    # float() read; the other records of their block come out the same
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", 4)
    body = [f"{i} {j} {i + j / 8}" for i in range(1, 4) for j in range(1, 4)]
    body[5] = odd
    kind, shape, _ = assert_same_outcome("tensor m=2 n=3\n" + "\n".join(body) + "\n")
    assert (kind, shape) == ("ok", (3, 3))


def test_comment_only_block_between_record_blocks(monkeypatch):
    # numpy's reader warns "input contained no data" on the middle block
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", 3)
    text = "tensor m=2 n=2\n1 1 1.0\n1 2 2.0\n2 1 3.0\n# a\n\n  # b\n2 2 4.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = parse_tensor(text)
    assert A.entries.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert outcome(parse_tensor, text) == outcome(scalar_parse_tensor, text)


def test_parse_leaves_other_threads_warnings_alone(monkeypatch):
    # a warning another thread raises while blocks are parsed stays a warning:
    # the parser changes no process-wide warning filter
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", 3)
    text = "tensor m=2 n=2\n1 1 1.0\n1 2 2.0\n2 1 3.0\n# a\n\n  # b\n2 2 4.0\n"
    raised, parsing = [], threading.Event()

    def warn():
        while not parsing.is_set():
            pass
        while parsing.is_set():
            try:
                warnings.warn("from another thread", RuntimeWarning)
            except RuntimeWarning as exc:
                raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        thread = threading.Thread(target=warn)
        thread.start()
        parsing.set()
        try:
            results = [parse_tensor(text).entries.tolist() for _ in range(300)]
        finally:
            parsing.clear()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
    assert not thread.is_alive() and not raised
    assert results == [[[1.0, 2.0], [3.0, 4.0]]] * 300
    assert caught and {str(w.message) for w in caught} == {"from another thread"}


REAL_LOADTXT = np.loadtxt


def truncating_loadtxt(lines, dtype, **kwargs):
    """np.loadtxt as numpy 1.x reads an integer field: a float spelling is
    read as the float, truncated, with a DeprecationWarning."""
    dtype = np.dtype(dtype)
    floats = [(k, float, dtype[k].shape) for k in dtype.names] if dtype.names else float
    read = REAL_LOADTXT(lines, dtype=floats, **kwargs)
    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
    with np.errstate(invalid="ignore"):
        return read.astype(dtype)


def refusing_loadtxt(lines, dtype, **kwargs):
    """np.loadtxt as numpy 2 reads a float spelling in an integer field."""
    raise ValueError(f"could not convert string {lines[0]!r} to {np.dtype(dtype)}")


def test_float_spelled_index_probe(monkeypatch):
    # the installed numpy's answer, whichever numpy it is, is the one taken at
    # import and does not depend on the warning filters
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert tensor_module._reads_float_spelled_integers() == tensor_module._SCREEN_INDICES
    for loadtxt, reads in ((truncating_loadtxt, True), (refusing_loadtxt, False)):
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert tensor_module._reads_float_spelled_integers() is reads


@pytest.mark.parametrize("block", [3, 8192])
def test_reader_that_truncates_float_indices_is_screened(monkeypatch, block):
    # with numpy 1.x's reader, blocks whose index fields are not plain
    # integers go to the per-line reader, whatever the warning filters say
    monkeypatch.setattr(tensor_module, "_PARSE_BLOCK", block)
    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    monkeypatch.setattr(tensor_module, "_SCREEN_INDICES", True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for line in ("1.5 2 0.5", "1.0 2 0.5", "1e0\t2 0.5", "  +1.  2 0.5 # c"):
            text = f"tensor m=2 n=2\n2 2 4.0\n{line}\n1 1 1.0\n"
            assert assert_same_outcome(text) == (
                "error", f"non-integer index in {line.split('#')[0].strip()!r} (line 3)", (3,))
        for _, text in panel(7):
            assert_same_outcome(text)
        # unscreened, the truncating reader takes 1.5 for 1
        monkeypatch.setattr(tensor_module, "_SCREEN_INDICES", False)
        assert parse_tensor("tensor m=2 n=2\n1.5 2 0.5\n").entry((1, 2)) == 0.5


def test_index_beyond_int64_is_out_of_range():
    text = "tensor m=2 n=2\n1 1 1.0\n2 99999999999999999999 0.5\n"
    assert assert_same_outcome(text) == (
        "error", "index 99999999999999999999 out of range 1..2 (line 3)", (3,))


def test_parse_holds_one_dense_copy():
    # a symmetric (3,200) parse: 61 MiB dense; the tensor takes the parser's
    # array, so the peak is that array, not it, a copy and a finiteness mask
    text = "tensor m=3 n=200 symmetric\n1 2 3 0.5\n200 1 7 -2.25\n"
    dense = 200**3 * 8
    tracemalloc.start()
    try:
        A = parse_tensor(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.entry((7, 200, 1)) == -2.25 and not A.entries.flags.writeable
    assert peak < dense + dense // 4


def test_orbit_block_size_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(31)
    cases = []
    for m, n in ((3, 4), (4, 3), (5, 2), (2, 9)):
        A = random_symmetric_tensor(rng, m, n, low=-1.0, high=1.0)
        listing = "\n".join(
            " ".join(map(str, t)) + f" {A.entry(t)!r}"
            for t in itertools.combinations_with_replacement(range(1, n + 1), m)
        )
        skewed = A.entries.copy()
        skewed[(0,) * (m - 1) + (1,)] += 1e-9
        cases.append((f"tensor m={m} n={n} symmetric\n{listing}\n", Tensor(m, n, skewed)))

    def results():
        return [
            (parse_tensor(text).entries.tobytes(), weak_symmetry_check(B).symmetric)
            for text, B in cases
        ]

    default = results()
    monkeypatch.setattr(tensor_module, "_ORBIT_BLOCK", 5)
    assert results() == default
    assert [sym for _, sym in default] == [False] * len(cases)
    for text, _ in cases:
        assert weak_symmetry_check(parse_tensor(text)).symmetric


def test_oversized_header_is_refused_before_allocating():
    # 10001**2 entries would take 800 MB; the refusal must not come near that
    text = "tensor m=2 n=10001\n" + "1 1 1.0\n" * 1000
    assert 10001**2 > MAX_DENSE_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(TensorFormatError) as err:
            parse_tensor(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.lines == (1,)
    assert peak < 2**20


def test_huge_order_header_is_refused_before_the_power():
    # 3**10**7 alone is a 2 MB integer and seconds of work
    tracemalloc.start()
    try:
        with pytest.raises(TensorFormatError) as err:
            parse_tensor("tensor m=10000000 n=3\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.lines == (1,)
    assert str(err.value) == f"dense tensor too large: 3**10000000 > {MAX_DENSE_ENTRIES} (line 1)"
    assert peak < 2**20
    with pytest.raises(ValueError, match=r"dense tensor too large: 3\*\*10000000 entries exceeds"):
        Tensor(10**7, 3, [])


def test_header_size_over_int_digit_limit_is_a_format_error():
    # int() refuses strings of over 4300 digits with a plain ValueError
    nines = "9" * 5000
    assert assert_same_outcome(f"tensor m=2 n={nines}\n") == (
        "error", "dense tensor too large: n has 5000 digits (line 1)", (1,))
    assert assert_same_outcome(f"tensor m={nines} n=2\n")[1].startswith(
        "dense tensor too large: m has 5000 digits")
    # leading zeros do not count
    assert assert_same_outcome("tensor m=" + "0" * 5000 + "2 n=2\n1 1 1.0\n")[:2] == ("ok", (2, 2))


def test_serialize_matches_scalar_writer(example1, example2):
    rng = np.random.default_rng(43)
    tensors = [example1, example2, Tensor.zeros(3, 2)]
    for m, n in ((2, 2), (3, 4), (4, 3), (2, 12), (5, 2)):
        arr = rng.uniform(-1.0, 1.0, (n,) * m) * (rng.random((n,) * m) < 0.5)
        arr[rng.random((n,) * m) < 0.1] = -0.0
        tensors.append(Tensor(m, n, arr))
    for A in tensors:
        assert serialize_tensor(A) == scalar_serialize_tensor(A)
