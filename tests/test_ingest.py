"""The bulk TSV parser against the per-line oracle in ``reference_parser``,
and the id-row stores it fills."""

import numpy as np
import pytest

import reference_parser as ref
from twoview.errors import ParseError, TwoViewError
from twoview.kb import (CHUNK_CHARS, CrossLinkStore, HierarchyStore, Triple,
                        TripleStore, Vocab, entity_frequency, extract_hierarchy,
                        load_kb, parse_hierarchy, parse_links, parse_triples)

N_LINES = 9000          # about 3 chunks of lines of ~20 characters
BAD_AT = 7000           # past the first chunk
ENTITIES = [f"e{i}" if i % 4 else f"ent {i} é" for i in range(400)]  # spaces, non-ASCII
RELATIONS = [f"r{i}" for i in range(9)]


def _lines(rng, n=N_LINES) -> list[str]:
    """Triple lines drawn from a small pool, so some repeat."""
    rows = []
    for _ in range(n):
        e = rng.integers(len(ENTITIES), size=2)
        rows.append(f"{ENTITIES[e[0]]}\t{RELATIONS[rng.integers(len(RELATIONS))]}"
                    f"\t{ENTITIES[e[1]]}")
    return rows


def _link_lines(lines: list[str]) -> list[str]:
    """(head, tail) link lines of triple lines."""
    return ["\t".join(line.split("\t")[::2]) for line in lines]


def _write(path, lines, ending="\n", final=True) -> None:
    text = ending.join(lines) + (ending if final else "")
    path.write_bytes(text.encode("utf-8"))


# layout cases: (name, function of (rng, lines) -> (lines, ending, final newline))
def _blank(rng, lines):
    for i in sorted(rng.choice(len(lines), 60, replace=False), reverse=True):
        lines.insert(i, "")
    return ["", ""] + lines + ["", ""], "\n", True


LAYOUTS = {
    "lf": lambda rng, lines: (lines, "\n", True),
    "crlf": lambda rng, lines: (lines, "\r\n", True),
    "cr": lambda rng, lines: (lines, "\r", True),
    "no_final_newline": lambda rng, lines: (lines, "\n", False),
    "blank_lines": _blank,
    "blank_crlf": lambda rng, lines: (_blank(rng, lines)[0], "\r\n", True),
    "one_line": lambda rng, lines: (lines[:1], "\n", False),
    "only_blank": lambda rng, lines: (["", "", ""], "\n", True),
    "empty": lambda rng, lines: ([], "\n", False),
}


def _outcome(fn, *args):
    """What a parse gives: its value, or the error's class and message."""
    try:
        return fn(*args)
    except TwoViewError as exc:
        return type(exc), str(exc)


def _bulk_triples(path, h, r, t, grow=False):
    store = parse_triples(path, h, r, t, grow=grow)
    return list(map(tuple, store.rows.tolist())), store.duplicates_dropped


def _bulk_links(path, e, c):
    store = parse_links(path, e, c)
    return list(store.links), store.duplicates_dropped, store.skipped_unknown


def _check_triples(path):
    """Strict and growing triples give the oracle's outcome, and growing
    interns the oracle's names in its order."""
    known = (Vocab(ENTITIES), Vocab(RELATIONS), Vocab(ENTITIES))
    assert _outcome(_bulk_triples, path, *known) == _outcome(ref.parse_triples, path, *known)
    grown = []
    for parse in (_bulk_triples, ref.parse_triples):
        e, r = Vocab(), Vocab()
        got = _outcome(parse, path, e, r, e, True)
        grown.append((got, None if isinstance(got[0], type) else (e.names, r.names)))
    assert grown[0] == grown[1]
    return _outcome(_bulk_triples, path, *known)


def _check_links(path):
    vocabs = (Vocab(ENTITIES[:300]), Vocab(ENTITIES))    # some heads unknown
    got = _outcome(_bulk_links, path, *vocabs)
    assert got == _outcome(ref.parse_links, path, *vocabs)
    return got


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layouts_equal_oracle(tmp_path, layout):
    rng = np.random.default_rng(5)
    lines, ending, final = LAYOUTS[layout](rng, _lines(rng))
    path = tmp_path / "t.tsv"
    _write(path, lines, ending, final)
    rows, dropped = _check_triples(path)
    assert len(rows) + dropped == sum(map(bool, lines))
    many = len(lines) > 100
    assert not many or (path.stat().st_size > 2 * CHUNK_CHARS and dropped > 0)
    _write(path, _link_lines(lines), ending, final)
    rows, dropped, skipped = _check_links(path)
    assert not many or (dropped > 0 and skipped > 0)


# error cases: line BAD_AT is replaced; "+k" entries also replace line BAD_AT + k
ERRORS = {
    "too_few_fields": ["a\tb"],
    "too_many_fields": ["e1\tr1\te2\te3"],
    "unknown_name": ["e1\tnot_a_relation\te2"],
    "unknown_tail": ["e1\tr1\tnobody"],
    "empty_middle": ["e1\t\te2"],
    "empty_first": ["\tr1\te2"],
    "empty_last": ["e1\tr1\t"],
    "blank_then_bad": ["", "+1:", "+2:e1\tr1"],
    "unknown_then_bad": ["e1\tr1\tnobody", "+3:e1\tr1"],
    "bad_then_unknown": ["e1\tr1", "+3:e1\tr1\tnobody"],
    "empty_then_unknown": ["e1\t\te2", "+1:e1\tr1\tnobody"],
    "unknown_then_empty": ["e1\tr1\tnobody", "+1:e1\t\te2"],
}


def _with_errors(lines, bad: list[str]) -> list[str]:
    lines = list(lines)
    lines[BAD_AT] = bad[0]
    for extra in bad[1:]:
        offset, text = extra[1:].split(":", 1)
        lines[BAD_AT + int(offset)] = text
    assert len("\n".join(lines[:BAD_AT])) > CHUNK_CHARS
    return lines


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("case", ERRORS)
def test_errors_past_first_chunk_equal_oracle(tmp_path, case, ending):
    path = tmp_path / "t.tsv"
    _write(path, _with_errors(_lines(np.random.default_rng(6)), ERRORS[case]), ending)
    assert isinstance(_check_triples(path)[0], type)


LINK_ERRORS = {
    "too_few_fields": ["e1"],
    "too_many_fields": ["e1\te2\te3"],
    "empty_field": ["e1\t"],
    "unknown_then_bad": ["nobody\te1", "+2:e1"],
    "blank_then_empty": ["", "+1:\te2"],
}


@pytest.mark.parametrize("case", LINK_ERRORS)
def test_link_errors_past_first_chunk_equal_oracle(tmp_path, case):
    path = tmp_path / "l.tsv"
    lines = _link_lines(_lines(np.random.default_rng(8)))
    _write(path, _with_errors(lines, LINK_ERRORS[case]))
    assert isinstance(_check_links(path)[0], type)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_non_utf8_past_first_chunk(tmp_path, ending):
    """A byte that is not UTF-8, in line BAD_AT + 1, is reported with that
    line by every reader of the bulk parser."""
    triples, path, grown = _lines(np.random.default_rng(7)), tmp_path / "t.tsv", Vocab()
    for lines, parse, args in [
            (triples, _bulk_triples, (Vocab(ENTITIES), Vocab(RELATIONS), Vocab(ENTITIES))),
            (triples, _bulk_triples, (grown, Vocab(), grown, True)),
            (_link_lines(triples), _bulk_links, (Vocab(ENTITIES), Vocab(ENTITIES)))]:
        _write(path, lines, ending)
        raw = path.read_bytes()
        cut = len(ending.join(lines[:BAD_AT]).encode()) + 3
        path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        assert cut > CHUNK_CHARS
        assert _outcome(parse, path, *args) == (
            TwoViewError, f"cannot read {path}: line {BAD_AT + 1} is not UTF-8 "
                          "(invalid start byte)")


def test_empty_field_is_a_parse_error_in_load_kb(tmp_path):
    """A KB with an empty field used to load, interning '', and then write
    a split directory that could not be read back."""
    inst, onto, links = (tmp_path / f for f in ("i.tsv", "o.tsv", "l.tsv"))
    inst.write_text("a\tr\tb\na\t\tb\n", encoding="utf-8")
    onto.write_text("x\tm\ty\n", encoding="utf-8")
    links.write_text("a\tx\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_kb(inst, onto, links)
    assert (exc.value.path, exc.value.line_no) == (str(inst), 2)


# --------------------------------------------------------------------------
# Stores

def test_membership_outside_stored_range_is_false():
    # without the range check, (0, 0, 8) would pack to the key of (0, 1, 0)
    store = TripleStore([Triple(0, 1, 0), Triple(3, 2, 5)])
    assert (0, 1, 0) in store and (3, 2, 5) in store
    for t in [(0, 0, 1), (0, 0, 8), (4, 0, 0), (0, 4, 0), (-1, 1, 0), (0, -1, 0),
              (0, 1, -1), (2**40, 1, 0), (0, 1, 2**62)]:
        assert t not in store, t
    pairs = CrossLinkStore([(0, 1)])
    for p in [(1, 0), (0, 2), (-1, 1), (0, -1), (2**40, 1)]:
        assert p not in pairs, p
    assert (np.int64(0), np.int64(1)) in pairs
    assert (0, 1) not in CrossLinkStore() and (0, 0) not in HierarchyStore()


@pytest.mark.parametrize("cls, width", [(TripleStore, 3), (CrossLinkStore, 2),
                                         (HierarchyStore, 2)])
@pytest.mark.parametrize("size", [0, 1, 40])
def test_contains_rows_agrees_with_in(cls, width, size):
    """The batched membership answers each row as ``in`` does, for ids past
    a field's width, negative ids and empty stores."""
    rng = np.random.default_rng(size)
    store = cls(rng.integers(6, size=(size, width)))
    probes = np.concatenate([store.rows, rng.integers(-2, 9, size=(300, width)),
                             np.array([[2**40] + [0] * (width - 1), [0] * (width - 1)
                                       + [2**62], [-1] * width, [0] * width])])
    members = set(map(tuple, store.rows.tolist()))
    want = [tuple(row) in members for row in probes.tolist()]
    got = store.contains_rows(probes)
    assert got.dtype == bool and got.shape == (len(probes),)
    assert got.tolist() == want == [tuple(row) in store for row in probes.tolist()]
    assert got[:len(store)].all() and not all(want)
    assert store.contains_rows(np.empty((0, width), np.int64)).shape == (0,)


@pytest.mark.parametrize("cls, width", [(TripleStore, 3), (CrossLinkStore, 2),
                                         (HierarchyStore, 2)])
def test_contains_rows_refuses_what_the_gate_refuses(cls, width):
    """Float ids and rows of another shape raise; they once answered as
    the truncated ids, or split into rows of ``WIDTH``.  One (WIDTH,) row
    and other integer dtypes are asked about like (1, WIDTH) int64 rows."""
    row = list(range(1, width + 1))
    store = cls([row])
    for bad in ([[x + 0.5 for x in row]], np.array([row], np.float32), [row * 2],
                [row[:-1]], [[row]], row[0], np.array(["1"] * width)):
        with pytest.raises(TwoViewError, match=f"integer id rows of {width}"):
            store.contains_rows(bad)
    assert store.contains_rows(row).tolist() == [True]
    for dtype in (np.int32, np.uint8, np.uint64):
        assert store.contains_rows(np.array([row, [0] * width], dtype)).tolist() == [True, False]
    assert store.contains_rows(np.array([[2**64 - 1] * width], np.uint64)).tolist() == [False]


def scan_lookup(store, prefix, turn):
    """``store.lookup`` by a scan: (query row, rest) of every stored row
    whose columns, turned left ``turn`` places, start with a prefix row."""
    turned = [row[turn:] + row[:turn] for row in store.rows.tolist()]
    return sorted((q, tuple(row[len(p):])) for q, p in enumerate(prefix.tolist())
                  for row in turned if row[:len(p)] == p)


@pytest.mark.parametrize("cls, width", [(TripleStore, 3), (CrossLinkStore, 2),
                                         (HierarchyStore, 2)])
@pytest.mark.parametrize("size", [0, 1, 40])
@pytest.mark.parametrize("turn", [0, 1])
@pytest.mark.parametrize("high", [1, 6])
def test_lookup_agrees_with_a_scan(cls, width, size, turn, high):
    """Every prefix width, in both column turns, for ids past a field's
    width, negative ids and empty stores; the full width is membership.
    At ``high`` 1 every field is 0 bits wide, so every prefix is a whole key."""
    rng = np.random.default_rng(size)
    store = cls(rng.integers(high, size=(size, width)))
    turned = np.roll(store.rows, -turn, axis=1)
    for j in range(1, width + 1):
        prefix = np.concatenate([turned[:, :j], rng.integers(-2, 9, size=(60, j)),
                                 [[2**40] * j, [-1] * j, [0] * (j - 1) + [2**62]]])
        i, v = store.lookup(prefix, turn)
        assert i.dtype == v.dtype == np.int64 and v.shape == (len(i), width - j)
        assert sorted(zip(i.tolist(), map(tuple, v.tolist()))) == \
            scan_lookup(store, prefix, turn)
        assert np.bincount(i, minlength=len(prefix))[:len(store)].all()
    member = np.bincount(i, minlength=len(prefix)) > 0
    assert member.tolist() == store.contains_rows(np.roll(prefix, turn, axis=1)).tolist()


@pytest.mark.parametrize("cls, top", [(TripleStore, (2**21 - 1,) * 3),
                                      (CrossLinkStore, (2**32 - 1, 2**31 - 1))])
def test_lookup_where_the_fields_fill_63_bits(cls, top):
    """The end of a key range is searched as the prefix with every lower
    bit set: at the top of 63-bit fields, prefix + 2**low overflows int64."""
    top = np.array(top)
    store = cls([top, top - 1, top * [1, 0, 1][:len(top)], top * [0, 1, 0][:len(top)]])
    assert sum(store._bits) == 63
    for turn in (0, 1):
        for j in range(1, len(top) + 1):
            prefix = np.concatenate([np.roll(store.rows, -turn, axis=1)[:, :j],
                                     [np.roll(top, -turn)[:j] + 1]])
            i, v = store.lookup(prefix, turn)
            assert sorted(zip(i.tolist(), map(tuple, v.tolist()))) == \
                scan_lookup(store, prefix, turn)
    assert store.contains_rows(store.rows).all()


def test_lookup_refuses_what_it_cannot_read():
    """A prefix is a 2-D integer array of one to ``WIDTH`` columns, and a
    turn is 0 or 1."""
    store = TripleStore([(1, 2, 3)])
    for bad in ([1, 2], [[1.0, 2.0]], [[1, 2, 3, 4]], np.empty((1, 0), np.int64)):
        with pytest.raises(TwoViewError, match="integer id rows of 1 to 3"):
            store.lookup(bad)
    with pytest.raises(TwoViewError, match=r"in turn 0 or 1, got int64 \(1, 1\) in turn 2"):
        store.lookup([[1]], turn=2)
    assert store.lookup(np.array([[2, 3]], np.uint8), turn=1)[1].tolist() == [[1]]


@pytest.mark.parametrize("cls, width", [(TripleStore, 3), (CrossLinkStore, 2),
                                         (HierarchyStore, 2)])
def test_in_answers_like_a_set_of_id_tuples(cls, width):
    """A key that the stores' id gate refuses is not a member: a longer or
    shorter row, a float or negative id, a name, a bare id or ``None``."""
    rows = [tuple(range(1, width + 1)), tuple(range(4, width + 4))]
    store = cls(rows)
    assert all(row in store for row in rows)
    first = rows[0]
    for key in [rows[0] + rows[1], first[:-1], (1.5,) + first[1:], (-1,) + first[1:],
                tuple(map(str, first)), first[0], None, (None,) * width]:
        assert key not in store, key


@pytest.mark.parametrize("rows", [[(1.5, 2, 3)], np.array([[1.0, 2, 3]]),
                                  [("a", "b", "c")], [(1, 2, 3), (4, 5)]])
def test_store_refuses_rows_that_are_not_ids(rows):
    """Once, ``TripleStore([(1.5, 2, 3)])`` stored (1, 2, 3), and names or
    ragged rows raised numpy's ``ValueError``."""
    with pytest.raises(TwoViewError, match="non-negative integer ids"):
        TripleStore(rows)


def test_stores_are_built_once():
    """A store's rows come from its constructor only; fields as wide as its
    widest ids still keep narrow and wide rows apart."""
    store = TripleStore([Triple(1, 0, 1), Triple(1, 0, 2), Triple(900, 7, 3000)])
    assert Triple(900, 7, 3000) in store and Triple(1, 0, 2) in store
    assert Triple(1, 0, 3000) not in store and Triple(900, 0, 2) not in store
    links = CrossLinkStore([(0, 1), (0, 5)])
    assert links.by_entity == {0: (1, 5)} and (0, 5) in links
    for cls in (TripleStore, CrossLinkStore, HierarchyStore):
        assert not hasattr(cls, "add")


def test_iteration_yields_python_ints():
    store = TripleStore(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int32))
    rows = list(store)
    assert all(type(t) is Triple for t in rows)
    assert all(type(x) is int for t in rows for x in t)
    assert all(type(x) is int for p in CrossLinkStore([(1, 2)]) for x in p)
    assert all(type(x) is int for p in HierarchyStore([(1, 2)]).pairs for x in p)
    assert store.triples == (Triple(1, 2, 3), Triple(4, 5, 6))


def test_rows_first_occurrence_and_read_only():
    store = TripleStore([Triple(2, 0, 1), Triple(0, 0, 1), Triple(2, 0, 1), Triple(1, 1, 1)])
    assert store.rows.tolist() == [[2, 0, 1], [0, 0, 1], [1, 1, 1]]
    assert store.duplicates_dropped == 1 and len(store) == 3
    with pytest.raises(ValueError):
        store.rows[0, 0] = 5
    with pytest.raises(TypeError):
        CrossLinkStore([(0, 1), (0, 2)]).by_entity[0] = (3,)


@pytest.mark.parametrize("rows", [[(0, 1)], [(0, -1, 2)], [(1, 2, 3, 4)]])
def test_store_rejects_bad_rows(rows):
    with pytest.raises(TwoViewError):
        TripleStore(rows)


def test_extract_hierarchy_rows():
    m = Vocab(["sub", "rel", "part"])
    onto = TripleStore([Triple(3, 0, 1), Triple(2, 1, 3), Triple(4, 2, 1),
                        Triple(3, 2, 1), Triple(5, 0, 4)])
    pairs, rest = extract_hierarchy(onto, ["sub", "part"], m)
    assert pairs.pairs == ((3, 1), (4, 1), (5, 4))     # order kept, (3, 1) once
    assert rest.triples == (Triple(2, 1, 3),)
    with pytest.raises(TwoViewError, match="identical concepts"):
        extract_hierarchy(TripleStore([Triple(1, 0, 2), Triple(2, 0, 2)]), ["sub"], m)


def test_entity_frequency_equals_counting(rng):
    store = TripleStore(rng.integers(0, 30, size=(400, 3)))
    want = {}
    for h, _, t in store:
        want[h] = want.get(h, 0) + 1
        want[t] = want.get(t, 0) + 1
    assert entity_frequency(store) == want
    assert entity_frequency(TripleStore()) == {}


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_self_paired_hierarchy_line_is_named(tmp_path, ending):
    """The error names the file, the line (blank lines counted) and the
    concept, not its id."""
    path = tmp_path / "hierarchy.tsv"
    _write(path, ["a\tb", "", "b\tc", "", "c\tc", "a\tc"], ending)
    with pytest.raises(ParseError, match="identical concepts") as exc:
        parse_hierarchy(path, Vocab(["a", "b", "c"]))
    assert (exc.value.path, exc.value.line_no) == (str(path), 5)
    assert str(exc.value).endswith("identical concepts ('c')")


def test_extract_hierarchy_names_a_self_paired_triple():
    onto = TripleStore([Triple(1, 1, 2), Triple(2, 0, 2)])
    meta, concepts = Vocab(["sub", "rel"]), Vocab(["x", "y", "z"])
    with pytest.raises(TwoViewError, match="'sub' from concept 'z' to itself"):
        extract_hierarchy(onto, ["sub"], meta, concepts)
    with pytest.raises(TwoViewError, match="'sub' from concept id 2 to itself"):
        extract_hierarchy(onto, ["sub"], meta)
    assert len(extract_hierarchy(onto, ["rel"], meta, concepts)[0]) == 1
