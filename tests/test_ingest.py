"""The bulk TSV parser against the per-line oracle in ``reference_parser``,
and the id-row stores it fills."""

import re

import numpy as np
import pytest

import reference_parser as ref
from twoview.errors import ParseError, TwoViewError
from twoview.kb import (CHUNK_CHARS, CrossLinkStore, HierarchyStore, Triple,
                        TripleStore, Vocab, entity_frequency, extract_hierarchy,
                        load_kb, parse_links, parse_triples)

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
    """What a parse gives: its value, or the error's class and message (the
    decoder's byte position, which depends on the read size, left out)."""
    try:
        return fn(*args)
    except TwoViewError as exc:
        return type(exc), re.sub(r"position \d+", "position N", str(exc))


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


def test_non_utf8_past_first_chunk(tmp_path):
    lines = _lines(np.random.default_rng(7))
    path = tmp_path / "t.tsv"
    _write(path, lines)
    raw = path.read_bytes()
    cut = len("\n".join(lines[:BAD_AT]).encode()) + 3
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    got = _check_triples(path)
    assert got[0] is TwoViewError and got[1].startswith(f"cannot read {path}: ")
    assert cut > CHUNK_CHARS


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


def test_add_after_membership_query():
    store = TripleStore([Triple(1, 0, 1)])
    assert Triple(1, 0, 2) not in store
    assert store.add(Triple(1, 0, 2))
    assert Triple(1, 0, 2) in store
    assert store.add(Triple(900, 7, 3000))      # wider than every field so far
    assert Triple(900, 7, 3000) in store and Triple(1, 0, 2) in store
    assert Triple(1, 0, 3000) not in store
    assert not store.add(Triple(1, 0, 2))
    assert store.duplicates_dropped == 1
    assert store.rows.tolist() == [[1, 0, 1], [1, 0, 2], [900, 7, 3000]]
    links = CrossLinkStore([(0, 1)])
    assert links.by_entity == {0: (1,)}
    links.add(0, 5)
    assert links.by_entity == {0: (1, 5)} and (0, 5) in links


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
