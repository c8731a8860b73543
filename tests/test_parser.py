"""The array parser and writer against the one-record-at-a-time references.

Valid files must give bitwise-equal entries, malformed files the same
message and line numbers, and the writer the same text.  The seeded panel
and the texts numpy's reader refuses run on both routes: ``parse_tensor``
of the text, which hands numpy's reader its lines, and ``load_tensor`` of a
file that holds it, which hands numpy's reader its path.
"""

import itertools
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import zeigloc.tensor as tensor_module
from oracles import scalar_parse_tensor, scalar_serialize_tensor
from zeigloc.tensor import (
    MAX_DENSE_ENTRIES,
    Tensor,
    TensorFormatError,
    parse_tensor,
    serialize_tensor,
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


def assert_same_outcome(text, parse=parse_tensor):
    want = outcome(scalar_parse_tensor, text)
    assert outcome(parse, text) == want
    return want


# the routes to numpy's reader, and what each hands it
ROUTES = {"parse_tensor": "lines", "load_tensor": "path"}


@pytest.fixture
def numpy_reads(monkeypatch):
    """Every call of numpy's reader: ``via`` holds "path" or "lines" for
    each, and ``paths`` the paths.  Files of any size may go by path."""
    reads = SimpleNamespace(via=[], paths=[])
    load_records = tensor_module._load_records

    def spy(source, *args, **kwargs):
        by_path = isinstance(source, str)
        reads.via.append("path" if by_path else "lines")
        if by_path:
            reads.paths.append(source)
        return load_records(source, *args, **kwargs)

    monkeypatch.setattr(tensor_module, "_load_records", spy)
    monkeypatch.setattr(tensor_module, "_READ_FROM_PATH", 0)
    return reads


def reader(route, tmp_path):
    """``parse_tensor``, or ``load_tensor`` of a file in ``tmp_path`` that
    holds the text."""
    if route == "parse_tensor":
        return parse_tensor
    files = itertools.count()

    def load(text):
        path = tmp_path / f"{next(files)}.txt"
        path.write_bytes(text.encode("utf-8"))
        return tensor_module.load_tensor(path)

    return load


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


@pytest.mark.parametrize("route", ROUTES)
def test_parse_matches_scalar_reader_on_seeded_panel(numpy_reads, tmp_path, route):
    parse = reader(route, tmp_path)
    seen = {}
    for seed in (20261018, 5):
        for kind, text in panel(seed):
            result = assert_same_outcome(text, parse)
            seen.setdefault(kind, set()).add(result[0])
    # the panel reaches both outcomes where it should
    assert seen["valid"] == {"ok"}
    assert seen["bad"] == seen["two bad"] == seen["conflict then bad"] == {"error"}
    assert seen["conflict"] == {"error"}
    assert set(numpy_reads.via) == {ROUTES[route]}


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
    assert A.entries[0, 1] == 1.0
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
    assert lines[0] > 8192  # deep in a long body
    assert message == "bad value 'not-a-number' (line 9502)"


@pytest.mark.parametrize("route", ROUTES)
def test_two_bad_lines_report_the_earlier(numpy_reads, tmp_path, route):
    body = [f"{i} {j} 1.0" for i in range(1, 4) for j in range(1, 4)]
    body[6] = "1 2 3 4.0"  # field count, line 8
    body[3] = "1 4 1.0"  # out of range, line 5, earlier but a later check
    text = "tensor m=2 n=3\n" + "\n".join(body)
    assert assert_same_outcome(text, reader(route, tmp_path)) == (
        "error", "index 4 out of range 1..3 (line 5)", (5,))
    assert numpy_reads.via == [ROUTES[route]]


@pytest.mark.parametrize("route", ROUTES)
def test_parse_error_wins_over_an_earlier_conflict(numpy_reads, tmp_path, route):
    text = "tensor m=2 n=2\n1 1 1.0\n1 1 2.0\n2 2 3.0\n2 1 inf\n"
    assert assert_same_outcome(text, reader(route, tmp_path)) == (
        "error", "non-finite value 'inf' (line 5)", (5,))
    assert numpy_reads.via == [ROUTES[route]]


@pytest.mark.parametrize("odd", ["2 3 1_0.5", "2 \u0663 0.5"])
def test_block_numpy_refuses_is_read_line_by_line(numpy_reads, tmp_path, odd):
    # 1_0.5 and the Arabic-Indic digit three are spellings only int() and
    # float() read; the other records of the body come out the same.  A
    # file that is not pure ASCII goes to numpy's reader as lines
    body = [f"{i} {j} {i + j / 8}" for i in range(1, 4) for j in range(1, 4)]
    body[5] = odd
    text = "tensor m=2 n=3\n" + "\n".join(body) + "\n"
    for route, via in ROUTES.items():
        numpy_reads.via.clear()
        kind, shape, _ = assert_same_outcome(text, reader(route, tmp_path))
        assert (kind, shape) == ("ok", (3, 3))
        assert numpy_reads.via == [via if text.isascii() else "lines"], route


def test_comment_only_block_between_record_blocks(numpy_reads, tmp_path):
    # comment and blank lines between records: numpy's reader skips them
    # and warns of nothing
    text = "tensor m=2 n=2\n1 1 1.0\n1 2 2.0\n2 1 3.0\n# a\n\n  # b\n2 2 4.0\n"
    for route, via in ROUTES.items():
        numpy_reads.via.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(reader(route, tmp_path), text)
        assert got == outcome(scalar_parse_tensor, text), route
        assert got[2] == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
        assert numpy_reads.via == [via]


def test_numpy_reads_each_body_once(numpy_reads, tmp_path):
    # one call on the whole body, past 8192 lines too; a body numpy refuses
    # goes to the per-line reader, not to numpy's reader again
    n = 100
    body = [f"{i} {j} {i + j / 1000}" for i in range(1, n + 1) for j in range(1, n + 1)]
    valid = f"tensor m=2 n={n}\n" + "\n".join(body) + "\n"
    body[9500] = "96 1 9_6.001"  # line 9502: the same value in a spelling numpy refuses
    refused = f"tensor m=2 n={n}\n" + "\n".join(body) + "\n"
    want = outcome(scalar_parse_tensor, valid)
    assert want[0] == "ok"
    for route, text in [(r, t) for t in (valid, refused) for r in ROUTES]:
        numpy_reads.via.clear()
        assert outcome(reader(route, tmp_path), text) == want
        assert numpy_reads.via == [ROUTES[route]], (route, text is valid)


def test_parse_leaves_other_threads_warnings_alone():
    # a warning another thread raises while texts are parsed stays a
    # warning: the parser changes no process-wide warning filter
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


@pytest.mark.parametrize("route", ROUTES)
def test_float_spelled_index_is_refused(numpy_reads, tmp_path, route):
    # numpy's reader refuses a float spelling in an integer field, and the
    # per-line reader names the line
    parse = reader(route, tmp_path)
    for line in ("1.5 2 0.5", "1.0 2 0.5", "1e0\t2 0.5", "  +1.  2 0.5 # c"):
        text = f"tensor m=2 n=2\n2 2 4.0\n{line}\n1 1 1.0\n"
        assert assert_same_outcome(text, parse) == (
            "error", f"non-integer index in {line.split('#')[0].strip()!r} (line 3)", (3,))
    assert numpy_reads.via == [ROUTES[route]] * 4


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
    assert A.entries[6, 199, 0] == -2.25 and not A.entries.flags.writeable
    assert peak < dense + dense // 4


def test_fill_orbits_matches_a_fill_over_every_permutation():
    rng = np.random.default_rng(31)
    for m in range(2, 9):
        for n in itertools.takewhile(lambda n: n**m <= 5000, itertools.count(2)):
            arr = rng.standard_normal((n,) * m)
            want = arr.copy()
            for s in itertools.combinations_with_replacement(range(n), m):
                for q in itertools.permutations(s):
                    want[q] = arr[s]
            tensor_module._fill_orbits(arr)
            assert arr.tobytes() == want.tobytes(), (m, n)
            # weak_symmetry_check's tail orbit keys: the flat index of each sorted tuple
            keys = np.arange(n**m).reshape((n,) * m)
            tensor_module._fill_orbits(keys)
            tuples = np.sort(np.indices((n,) * m).reshape(m, -1), axis=0)
            assert np.array_equal(keys.ravel(), np.ravel_multi_index(tuples, (n,) * m)), (m, n)


def route_cases():
    """Texts whose lines numpy's reader could split otherwise than
    str.splitlines, with their own name, after every file of the panel."""
    for seed in (20261018, 5):
        for kind, text in panel(seed):
            yield kind, text
    records = ["1 1 1.0", "1 2 2.0", "2 3 0.5"]
    base = "tensor m=2 n=3\n" + "\n".join(records) + "\n"
    for c in "\v\f\x1c\x1d\x1e":
        yield f"{c!r} in a record", base.replace("1 2 2.0", f"1{c}2 2.0")
        yield f"{c!r} between records", base.replace("1.0\n1 2", f"1.0{c}1 2")
    yield "CRLF", base.replace("\n", "\r\n")
    yield "CR", base.replace("\n", "\r")
    yield "BOM", "\ufeff" + base
    yield "before the header", "# c\n\n   \n  # d\n" + base
    yield "comment-only body", "tensor m=2 n=3\n# only\n\n  # comments\n"
    yield "1_0", "tensor m=2 n=12\n1 1_0 1.0\n2 3 0.5\n"


def test_load_by_path_matches_parse_of_the_text(numpy_reads, tmp_path):
    # with no size floor, every pure-ASCII file free of the characters that
    # str.splitlines breaks lines at and numpy's reader does not goes to
    # numpy's reader by path
    cases = list(route_cases())
    for k, (name, text) in enumerate(cases):
        path = tmp_path / f"{k}.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(tensor_module.load_tensor, path)
        # a file's leading byte-order mark is skipped; a string's is not
        assert got == outcome(parse_tensor, text.removeprefix("\ufeff")), name
    taken = {int(Path(p).stem) for p in numpy_reads.paths}
    assert {k for k, (name, _) in enumerate(cases) if name == "valid"} <= taken
    for k, (name, _) in enumerate(cases):
        if name.endswith(("in a record", "between records")):
            assert k not in taken, name
    assert {cases[k][0] for k in taken} >= {"CRLF", "CR", "BOM", "before the header", "1_0", "bad"}
    # numpy's reader would decompress a path with this suffix
    path = tmp_path / "plain.txt.gz"
    path.write_text(cases[0][1], encoding="utf-8")
    assert outcome(tensor_module.load_tensor, path) == outcome(parse_tensor, cases[0][1])


@pytest.mark.parametrize("route", ["lines", "path"])
def test_load_skips_a_byte_order_mark(monkeypatch, tmp_path, route):
    # a full listing of (3,3) goes to numpy's reader as lines, one of (3,15)
    # by path; the mark sits on the header's line, which numpy's reader skips
    n = 3 if route == "lines" else 15
    rows = [f"{i} {j} {k} {(i * j + k) % 7 / 7}" for i, j, k in itertools.product(range(1, n + 1), repeat=3)]
    text = f"tensor m=3 n={n}\n" + "\n".join(rows) + "\n"
    assert (len(text) >= tensor_module._READ_FROM_PATH) == (route == "path")
    bad = text.replace(f"\n{rows[-2]}\n", f"\n{rows[-2].rsplit(' ', 1)[0]} bad\n")
    via = []
    load_records = tensor_module._load_records

    def spy(source, *args, **kwargs):
        via.append("path" if isinstance(source, str) else "lines")
        return load_records(source, *args, **kwargs)

    monkeypatch.setattr(tensor_module, "_load_records", spy)
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    for body, want in ((text, "ok"), (bad, "error")):
        plain.write_bytes(body.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
        got = outcome(tensor_module.load_tensor, marked)
        assert got == outcome(tensor_module.load_tensor, plain)
        assert got[0] == want
    assert got[2] == (len(rows),)  # the line of rows[-2], after the header's
    assert via == [route] * 4
    # parse_tensor takes a string as it is: the mark is part of the header
    got = outcome(parse_tensor, "\ufeff" + text)
    assert got[0] == "error" and got[1].startswith("malformed header '\\ufefftensor") and got[2] == (1,)


def test_load_by_path_holds_no_string_per_line(tmp_path):
    # a full listing of (3,30): the peak is the text, numpy's record array
    # and the dense array, with the flat keys and values (16 bytes a record)
    # taken from the record array; a str per line would add over 49 bytes
    m, n = 3, 30
    rng = np.random.default_rng(7)
    body = [f"{i} {j} {k} {v!r}" for (i, j, k), v in
            zip(itertools.product(range(1, n + 1), repeat=m), rng.random(n**m).tolist())]
    text = f"tensor m={m} n={n}\n" + "\n".join(body) + "\n"
    assert len(text) >= tensor_module._READ_FROM_PATH and text.isascii()
    path = tmp_path / "full.txt"
    path.write_text(text, encoding="utf-8")
    records, dense = n**m * (m + 1) * 8, n**m * 8
    tracemalloc.start()
    try:
        A = tensor_module.load_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.entries.tobytes() == parse_tensor(text).entries.tobytes()
    assert peak < len(text) + records + dense + 16 * n**m


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
    with pytest.raises(ValueError, match=rf"^dense tensor too large: 3\*\*10000000 > {MAX_DENSE_ENTRIES}$"):
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
    tensors = [example1, example2, Tensor(3, 2, np.zeros((2, 2, 2)))]
    for m, n in ((2, 2), (3, 4), (4, 3), (2, 12), (5, 2)):
        arr = rng.uniform(-1.0, 1.0, (n,) * m) * (rng.random((n,) * m) < 0.5)
        arr[rng.random((n,) * m) < 0.1] = -0.0
        tensors.append(Tensor(m, n, arr))
    for A in tensors:
        assert serialize_tensor(A) == scalar_serialize_tensor(A)
