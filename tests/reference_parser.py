"""The per-line TSV parser that ``twoview.kb`` replaced with a bulk one, kept
as its oracle: one line at a time through the file's line iterator, one
vocabulary lookup per name, one set probe per row.  It returns plain lists,
not stores, so it shares no code with what it checks.

It is the old parser with one rule added, as in the bulk one: an empty
field is a ``ParseError`` (the old parser interned it as the name '', which
a split directory cannot write back).
"""

from twoview.errors import ParseError, TwoViewError, UnknownSymbolError


def iter_fields(path, n_fields: int):
    """Yield (line_no, fields) for every non-blank line of a TSV file."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != n_fields:
                    raise ParseError(
                        path, line_no,
                        f"expected {n_fields} TAB-separated fields, got {len(fields)}")
                if "" in fields:
                    raise ParseError(path, line_no, "empty field")
                yield line_no, fields
    except (OSError, UnicodeDecodeError) as exc:
        raise TwoViewError(f"cannot read {path}: {exc}") from None


def _dedup(rows: list[tuple]) -> tuple[list[tuple], int]:
    """First occurrences in order, and the number of repeats dropped."""
    seen, kept = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    return kept, len(rows) - len(kept)


def parse_triples(path, head_vocab, rel_vocab, tail_vocab, grow=False):
    """(rows, duplicates_dropped) of a 3-column file; ``grow`` interns
    unseen names head, relation, tail per line, else they are errors."""
    rows = []
    for line_no, (h, r, t) in iter_fields(path, 3):
        if grow:
            rows.append((head_vocab.add(h), rel_vocab.add(r), tail_vocab.add(t)))
        else:
            try:
                rows.append((head_vocab.id(h), rel_vocab.id(r), tail_vocab.id(t)))
            except UnknownSymbolError as exc:
                raise UnknownSymbolError(f"{path}:{line_no}: {exc}") from None
    return _dedup(rows)


def parse_links(path, entity_vocab, concept_vocab):
    """(rows, duplicates_dropped, skipped_unknown) of a 2-column file;
    lines naming an unknown node are skipped and counted."""
    rows, skipped = [], 0
    for _, (e, c) in iter_fields(path, 2):
        if e not in entity_vocab or c not in concept_vocab:
            skipped += 1
            continue
        rows.append((entity_vocab.id(e), concept_vocab.id(c)))
    return (*_dedup(rows), skipped)
