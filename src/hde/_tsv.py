"""hde's TSV format, behind the readers and writers of `dag`, `scores`
and `thresholds`; every name here is private.

A file is UTF-8; a leading byte-order mark is dropped.  A line ends at a
line feed (text mode also ends it at a carriage return) and is kept
unless it is blank or, after any leading blanks, starts with `#`: a
comment, whose text follows the `#` and one optional space.  `_records`
streams a score or threshold table by this rule, faster than reading it
whole; `_kept_lines` splits a whole edge list, faster than streaming it.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import HdeError, ParseError, RangeError, check_unit_interval


@contextmanager
def _reading(path):
    """`path` open as UTF-8 text; not UTF-8: ParseError, with no line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _records(path, comments=None):
    """Yield (lineno, line without its newline) of each kept line, adding
    comment texts to `comments` if given."""
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.lstrip()
            if text.startswith("#") and comments is not None:
                comments.append(text[1:].removesuffix("\n").removeprefix(" "))
            elif text and text[0] != "#":
                yield lineno, line.rstrip("\n")


def _kept_lines(path):
    """(every line, the kept lines) of the file, split at line feeds only."""
    with _reading(path) as fh:
        lines = fh.read().split("\n")
    return lines, [ln for ln in lines if (t := ln.lstrip()) and t[0] != "#"]


def _readable(labels, heads="#", breaks="\t\n\r") -> bool:
    """Whether each of `labels` (strings) reads back whole as the first
    field of a row below a header line: UTF-8 encodes it (it holds no lone
    surrogate), and none holds a character of `breaks` or, after any
    leading blanks, starts with one of `heads` ("": blank)."""
    text = "".join(labels)
    return set(map(itemgetter(slice(1)), map(str.lstrip, labels))).isdisjoint(
        heads) and not any(map(text.__contains__, breaks)) and text.encode(
        "utf-8", "replace").decode("utf-8") == text


def _storable(names) -> bool:
    """Whether each of `names` is an identifier that `build_dag` accepts:
    `_readable`, and not blank or led by U+FEFF as an edge list needs."""
    try:
        return _readable(names, ("", "#", "\ufeff"))
    except TypeError:  # not a string
        return False


def _parse_cells(records, width):
    """(first fields, (rows, width) cells as float() reads them) of the
    rest of `records`.  RangeError names the first value outside [0, 1]
    (or NaN) in file order, else ParseError the first line with the wrong
    column count or a cell that is not a float literal."""
    kept = list(records)
    linenos, lines = [n for n, _ in kept], [line for _, line in kept]
    values = error = None
    # \x1c-\x1f: Unicode whitespace that np.loadtxt strips around a number
    # and float() refuses; every other cell text parses the same way in
    # both, or fails in loadtxt and so reaches the float() loop
    if lines and all(line.count("\t") == width
                     and not any(c in line for c in "\x1c\x1d\x1e\x1f")
                     for line in lines):
        try:
            values = np.loadtxt(lines, delimiter="\t",
                                usecols=range(1, width + 1), comments=None,
                                dtype=np.float64, ndmin=2)
        except ValueError:
            pass  # the loop below names the line, as float() words it
    if values is None:
        rows = []
        for lineno, line in zip(linenos, lines):
            parts = line.split("\t")
            try:
                if len(parts) != width + 1:
                    raise ValueError(
                        f"expected {width + 1} columns, got {len(parts)}")
                rows.append(list(map(float, parts[1:])))
            except ValueError as exc:
                error = ParseError(str(exc), line=lineno)
                break
        values = np.array(rows, dtype=np.float64).reshape(-1, width)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise RangeError(
            f"line {linenos[r]}: value {float(values[r, c])!r} outside [0, 1]")
    if error is not None:
        raise error
    return [line.split("\t", 1)[0] for line in lines], values


def _write_rows(fh, labels, values, digits: int | None = None,
                comments=(), header=None) -> None:
    """`# text` for each comment, the `header` fields if given, then one
    `label<TAB>cell...` line per row of a 2-D float array.

    Nothing is written unless the table reads back: text holding a lone
    surrogate, a comment holding a line break, a header field holding a
    tab or line break, a label that is not `_readable`, no class or a cell
    outside [0, 1] is an HdeError.
    Each distinct float64 bit pattern of a 4096-cell block is formatted once."""
    names, comments = list(map(str, labels)), list(map(str, comments))
    for what, texts, heads, breaks in (
            ("comment", comments, "", "\n\r"),
            ("header field", header or (), "", "\t\n\r"),
            ("row label", names, "#", "\t\n\r")):
        if not _readable(texts, heads, breaks):
            bad = next(t for t in texts if not _readable([t], heads, breaks))
            raise HdeError(f"{what} {bad!r} would not read back")
    if not (header[1:] if header else names):
        raise HdeError("a table with no class would not read back")
    check_unit_interval(values, "cells")
    head = "".join(f"# {c}\n" for c in comments)
    fh.write(head if header is None else head + "\t".join(header) + "\n")
    fmt = repr if digits is None else f"{{:.{digits}f}}".format
    step = max(1, 4096 // max(values.shape[1], 1))
    for i in range(0, len(values), step):
        block = np.ascontiguousarray(values[i:i + step], dtype=np.float64)
        bits, inv = np.unique(block.view(np.int64), return_inverse=True)
        texts = np.fromiter(map(fmt, bits.view(np.float64).tolist()), object)
        rows = texts[inv].reshape(block.shape).tolist()
        fh.write("".join([f"{lab}\t" + "\t".join(cells) + "\n"
                          for lab, cells in zip(names[i:i + step], rows)]))


def _emit(path, write) -> None:
    """`write(fh)` onto the UTF-8 file `path`, opened (so emptied) at the
    first `fh.write`: a table refused before it leaves the file as it was."""
    with ExitStack() as stack:
        def first(text):
            target.write = stack.enter_context(
                open(path, "w", encoding="utf-8")).write
            target.write(text)
        target = SimpleNamespace(write=first)
        write(target)
