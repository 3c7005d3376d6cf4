"""The artifact codecs: the tab-separated table, the key/value record and
the model file.

Every codec here splits a file into lines at "\n", after Python's
universal-newline reading has turned "\r\n" and "\r" into "\n"; every writer
ends each line with "\n". Any other character, "\x0c" or "\u2028" too, may
stand in a cell or a value.

A table is one header line of column names, then one line per row. A schema
is a tuple of `(name, kind)` columns, kind int, float or str, and at most one
`Block`: float columns prefix0 .. prefix{d-1}, with d taken from the data on
write and from the header on read. Floats are written with %.17g, so a round
trip is bit-identical.

A table streams in chunks: writing formats and writes rows of at most
_CHUNK_CELLS cells at a time, and reading reads _CHUNK_CELLS characters at a
time and splits and converts the whole lines they end as one chunk, carrying
the cut-off last line into the next read. So no more than one chunk's cells
are Python objects at once. A str column keeps one object per distinct
value. A 0-byte file fails as empty, and a file whose last line, the header
included, has no line break fails as cut short, naming that line, before any
row is checked. Each chunk's column is converted whole with
Python's int() and float() semantics, cell by cell only if that fails; a
column holding an int past int64 is Python ints. The masks of bad rows are
joined across chunks, and the caller's row checks are masks over whole
columns. Every step marks the rows it finds bad, in the order a line is
checked: the column count, then each column in order, its cells, its checks
and, for an int column holding a value past int64, the int64 range.
GraphFormatError names the first marked line and its first step's reason.

A record is one `key<sep>value` line per dataclass field, parsed by the
field's annotation (int, float, str or tuple[X, ...]); a dataclass-valued
field's fields are keyed `field.name`. The config files, gen.config and a
model file's config echo are records.

A model file (the checkpoint, the classifier file) holds a tag line, the
config echo, a manifest of array names and shapes, a sha256 over the data
lines, then one line of %.17g values per named float array.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass
from functools import partial, reduce
from itertools import repeat
from pathlib import Path
from typing import (
    Callable, Iterable, Mapping, NamedTuple, Sequence, get_args, get_origin, get_type_hints,
)

import numpy as np


class GraphFormatError(ValueError):
    """Raised for a malformed table file (graph, events, pairs, task features,
    embeddings); the message names path:line and the reason."""


class ConfigError(ValueError):
    """Raised for an invalid config or config file, every problem listed."""


class Block(NamedTuple):
    prefix: str
    what: str  # a bad cell reads "bad <what>"


class Check(NamedTuple):
    """Runs after `column`: `bad` maps the columns by name to a mask of bad
    rows, and `reason` is a str.format template over the row's cells."""

    column: str
    bad: Callable[[dict], np.ndarray]
    reason: str


_FORMATS = {int: "%d", float: "%.17g", str: "%s"}
_DTYPES = {int: np.int64, float: np.float64}
# a chunk's rows hold at most this many cells (at least one row), as
# synthetic._PAIR_CHUNK bounds the generator's draws; read_table also reads
# this many characters at a time
_CHUNK_CELLS = 1 << 14
_intern = np.frompyfunc(sys.intern, 1, 1)


def atomic_write_text(path: Path | str, pieces: Iterable[str]) -> None:
    """Write the text, given in pieces, via a temp file in the same directory
    plus rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _layout(schema: Sequence, width: int) -> tuple[list[str], list[tuple]]:
    """The header names, and (name, kind, grid columns) per schema entry."""
    names, spans = [], []
    for col in schema:
        if isinstance(col, Block):
            spans.append((col.prefix, float, slice(len(names), len(names) + width)))
            names += [f"{col.prefix}{j}" for j in range(width)]
        else:
            spans.append((*col, len(names)))
            names.append(col[0])
    return names, spans


def write_table(path: Path | str, schema: Sequence, columns: Sequence) -> None:
    """Atomically write a table from one column per schema entry (a [rows, d]
    array for the block), formatting it a chunk of rows at a time."""
    widths = [np.shape(c)[1] for s, c in zip(schema, columns) if isinstance(s, Block)]
    names, spans = _layout(schema, widths[0] if widths else 0)
    formats = np.empty(len(names), dtype=object)
    for _, kind, span in spans:
        formats[span] = _FORMATS[kind]
    row = "\t".join(formats) + "\n"
    num_rows, step = len(columns[0]), max(1, _CHUNK_CELLS // max(1, len(names)))

    def chunks():
        yield "\t".join(names) + "\n"
        for lo in range(0, num_rows, step):
            grid = np.empty((min(step, num_rows - lo), len(names)), dtype=object)
            for (_, kind, span), values in zip(spans, columns):
                values = values[lo : lo + step]
                # numeric cells become the Python ints and floats that % formats
                grid[:, span] = values if kind is str else np.asarray(values, dtype=_DTYPES[kind])
            yield row * len(grid) % tuple(grid.ravel().tolist())

    atomic_write_text(path, chunks())


def read_table(path: Path | str, schema: Sequence, checks: Sequence[Check] = ()) -> list:
    """The columns in schema order: int64 and float64 arrays, object arrays
    of str, and a [rows, d] float64 array for the block."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"table file not found: {path}")
    with path.open() as f:
        head = f.readline()
        if not head:  # a 0-byte file
            raise GraphFormatError(f"{path}:1: empty file")
        if not head.endswith("\n"):
            raise GraphFormatError(f"{path}:1: no line break at the end; the file is cut short")
        header = head[:-1].split("\t")
        names, spans = _layout(schema, len(header) - len(schema) + 1)
        if header != names:
            raise GraphFormatError(f"{path}:1: bad header {head[:-1]!r}")
        ncols = len(names)
        # per chunk: the ragged-line mask, and each column's values and mask of bad cells
        ragged: list[np.ndarray] = []
        parts: list[list[np.ndarray]] = [[] for _ in schema]
        bad_parts: list[list[np.ndarray]] = [[] for _ in schema]
        kept: dict[int, list[str]] = {}  # a chunk's first row -> its lines, if a fault showed
        start, tail, piece = 0, "", None
        while piece != "":  # a chunk per read, the empty one at the end too, so one at least
            piece = f.read(_CHUNK_CELLS)
            *lines, tail = (tail + piece).split("\n")
            tabs = list(map(str.count, lines, repeat("\t")))
            ragged.append(np.zeros(len(lines), dtype=bool))
            body = lines
            # blank ragged lines: their column count is the fault
            if tabs.count(ncols - 1) != len(lines):
                ragged[-1] = np.not_equal(tabs, ncols - 1)
                body = ["\t" * (ncols - 1) if r else line for line, r in zip(lines, ragged[-1])]
                kept[start] = lines
            grid = np.array("\t".join(body).split("\t") if body else [], dtype=object)
            grid = grid.reshape(-1, ncols)
            for col, (_, kind, span), values, bad in zip(schema, spans, parts, bad_parts):
                if kind is str:
                    values.append(_intern(grid[:, span]))
                    continue
                cells, cell_bad = _convert_cells(grid[:, span], kind)
                values.append(cells)
                bad.append(cell_bad.any(axis=1) if isinstance(col, Block) else cell_bad)
                if cells.dtype == object or bad[-1].any():
                    kept[start] = lines
            start += len(lines)
        if tail:
            raise GraphFormatError(
                f"{path}:{start + 2}: no line break at the end; the file is cut short"
            )

    def line(i):  # body row i's text, from the chunk kept for its fault
        first = max(s for s in kept if s <= i)
        return kept[first][i - first]

    def width(i):
        return line(i).count("\t") + 1

    # (mask of bad rows, reason for row i), in the order a line is checked
    steps = [(np.concatenate(ragged), lambda i: f"expected {ncols} columns, got {width(i)}")]
    cols: dict[str, np.ndarray] = {}
    for col, (name, kind, span), values, bad in zip(schema, spans, parts, bad_parts):
        def bad_cell(i, name=name, j=span):
            cell = line(i).split("\t")[j]
            return f"bad {name} {cell!r}"

        # an int column with a chunk of Python ints joins as Python ints;
        # each column's chunks are freed once joined
        cols[name] = np.concatenate(values)
        values.clear()
        if isinstance(col, Block):
            steps.append((np.concatenate(bad), lambda i, what=col.what: f"bad {what}"))
        elif kind is not str:
            steps.append((np.concatenate(bad), bad_cell))
        for check in (c for c in checks if c.column == name):
            steps.append((np.asarray(check.bad(cols), dtype=bool), partial(_reason, check, cols)))
        if cols[name].dtype == object and kind is int:  # Python ints: past int64 is bad
            wide = (cols[name] < -(2**63)) | (cols[name] >= 2**63)
            steps.append((np.asarray(wide, dtype=bool), bad_cell))
    if not any(mask.any() for mask, _ in steps):
        return list(cols.values())
    faults = np.stack([mask for mask, _ in steps])  # [step, row]
    i = int(np.argmax(faults.any(axis=0)))
    raise GraphFormatError(f"{path}:{i + 2}: {steps[np.argmax(faults[:, i])][1](i)}")


def _reason(check: Check, cols: dict, i: int) -> str:
    return check.reason.format(**{name: values[i] for name, values in cols.items()})


def _convert_cells(cells: np.ndarray, kind: type) -> tuple[np.ndarray, np.ndarray]:
    """The cells as int64 or float64, and an all-False mask of bad cells; if
    that cast fails, values (0 where bad) and the mask, cell by cell. A failed
    int column stays Python ints, so its checks see a value past int64."""
    try:
        return cells.astype(_DTYPES[kind]), np.zeros(cells.shape, dtype=bool)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(cells.shape, dtype=object)
    bad = np.zeros(cells.shape, dtype=bool)
    for idx, tok in np.ndenumerate(cells):
        try:
            values[idx] = kind(tok)
        except ValueError:
            bad[idx] = True
    return (values if kind is int else values.astype(np.float64)), bad


# ---------------------------------------------------------------------------
# key/value records


def format_value(value) -> str:
    """A float by repr, which parses back bit for bit; a tuple comma-joined."""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(kind, raw: str):
    """The format_value text of a field annotated `kind`, parsed; ValueError if bad."""
    if get_origin(kind) is tuple:
        return tuple(parse_value(get_args(kind)[0], tok) for tok in raw.split(","))
    return kind(raw)


def record_fields(cls, prefix: str = "") -> dict[str, type]:
    """Each leaf field's key and annotation, in field order."""
    hints = get_type_hints(cls)
    kinds: dict[str, type] = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            kinds.update(record_fields(hints[f.name], f"{prefix}{f.name}."))
        else:
            kinds[prefix + f.name] = hints[f.name]
    return kinds


def read_entries(
    path, lines: Sequence[tuple[int, str]], sep: str, kinds: Mapping[str, type],
    removed: Mapping[str, str] = {}, required: bool = False,
) -> tuple[dict[str, tuple[int, object]], list[str]]:
    """Each `key<sep>value` of the numbered lines as key -> (line number,
    value parsed by its kind), and every problem in line order as
    'path:line: reason'. With `required`, an absent key is reported at the
    line after the last."""
    entries: dict[str, tuple[int, object]] = {}
    problems = []
    for n, line in lines:
        key, found, raw = line.partition(sep)
        key, raw = key.strip(), raw.strip()
        if not found:
            reason = "expected key" + sep.replace("\t", "<TAB>") + "value"
        elif key in removed:
            reason = f"key {key!r} is removed: {removed[key]}"
        elif key not in kinds:
            reason = f"unknown key {key!r}"
        elif key in entries:
            reason = f"duplicate key {key!r}"
        else:
            try:
                entries[key] = (n, parse_value(kinds[key], raw))
                continue
            except ValueError:
                reason = f"{key}: cannot parse {raw!r}"
        problems.append(f"{path}:{n}: {reason}")
    if required:
        end = lines[-1][0] + 1 if lines else 1
        problems += [f"{path}:{end}: missing key {key!r}" for key in kinds if key not in entries]
    return entries, problems


def build_record(path, cls, entries: Mapping[str, tuple], problems: list[str], prefix: str = ""):
    """A `cls` from read_entries' entries, keyed as record_fields keys them,
    an absent field at its default. A constructor's ValueError or TypeError
    joins problems as 'path: reason', and the result is then None."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name
        if is_dataclass(hints[f.name]):
            kwargs[f.name] = build_record(path, hints[f.name], entries, problems, key + ".")
        elif key in entries:
            kwargs[f.name] = entries[key][1]
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        problems.append(f"{path}: {exc}")


def read_record(path: Path | str, cls, removed: Mapping[str, str] = {}):
    """A `cls` from a `key=value` file; ConfigError lists every problem, the
    lines' in line order, then the constructors'. Omitted keys keep their
    defaults, '#' starts a comment, and a key in `removed` fails with its
    reason."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    numbered = enumerate(path.read_text().split("\n"), start=1)
    lines = [(n, text) for n, line in numbered if (text := line.split("#", 1)[0]).strip()]
    entries, problems = read_entries(path, lines, "=", record_fields(cls), removed)
    record = build_record(path, cls, entries, problems)
    if problems:
        raise ConfigError(f"invalid {cls.__name__} file:\n  " + "\n  ".join(problems))
    return record


def write_record(path: Path | str, record, removed: Mapping[str, str] = {}) -> None:
    """Atomically write one `key=value` line per leaf field not in `removed`."""
    keys = [key for key in record_fields(type(record)) if key not in removed]
    values = [reduce(getattr, key.split("."), record) for key in keys]
    atomic_write_text(path, (f"{k}={format_value(v)}\n" for k, v in zip(keys, values)))


# ---------------------------------------------------------------------------
# model files


class CheckpointError(ValueError):
    """Raised for a malformed model file; the message names path:line and the reason."""


def write_model_file(path: Path | str, tag: str, echo: dict, arrays: dict) -> None:
    """Atomically write the tag, the echo, each array's name and shape, the
    checksum, then each array's values in C order."""
    data_lines = [
        f"{name}\t" + " ".join([_FORMATS[float]] * arr.size) % tuple(arr.ravel().tolist())
        for name, arr in arrays.items()
    ]
    digest = hashlib.sha256("\n".join(data_lines).encode()).hexdigest()
    head = [f"# {tag}"]
    head += [f"# config\t{key}\t{format_value(value)}" for key, value in echo.items()]
    head += [f"# tensor\t{name}\t{format_value(arr.shape)}" for name, arr in arrays.items()]
    head.append(f"# checksum\t{digest}")
    atomic_write_text(path, (line + "\n" for line in head + data_lines))


def _required_entries(path, lines, kinds: Mapping[str, type]) -> dict[str, tuple[int, object]]:
    """read_entries' entries with every key required; the first problem raises."""
    entries, problems = read_entries(path, lines, "\t", kinds, required=True)
    if problems:
        raise CheckpointError(problems[0])
    return entries


class ModelFile(NamedTuple):
    """A model file past its tag, checksum and config echo (read_entries'
    entries), with its numbered manifest and data lines."""

    path: Path
    echo: dict[str, tuple[int, object]]
    manifest: list[tuple[int, str]]
    data: list[tuple[int, str]]

    def arrays(self, shapes: Mapping[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        """The arrays named by `shapes`: the manifest lists exactly those names
        and shapes, and each data line holds that many finite numbers."""
        kinds = dict.fromkeys(shapes, tuple[int, ...])
        for name, (lineno, shape) in _required_entries(self.path, self.manifest, kinds).items():
            if shape != shapes[name]:
                raise CheckpointError(
                    f"{self.path}:{lineno}: tensor {name!r} has shape {shape}, "
                    f"config implies {shapes[name]}"
                )
        data = _required_entries(self.path, self.data, dict.fromkeys(shapes, str))
        arrays = {}
        for name, shape in shapes.items():
            lineno, raw = data[name]
            where = f"{self.path}:{lineno}: tensor {name!r}"
            tokens = np.array(raw.split(" ") if raw else [], dtype=object)
            arr, bad = _convert_cells(tokens, float)
            if bad.any():
                raise CheckpointError(f"{where}: bad number {tokens[np.argmax(bad)]!r}")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{where} has non-finite values")
            if arr.size != int(np.prod(shape)):
                raise CheckpointError(f"{where} has {arr.size} values, wants {shape}")
            arrays[name] = arr.reshape(shape)
        return arrays


def read_model_file(path: Path | str, tag: str, echo_kinds: Mapping[str, type]) -> ModelFile:
    """Check the tag, then the checksum over the data lines, then that the
    echo holds exactly the keys of `echo_kinds`, each parsed by its kind."""
    path = Path(path)
    lines = path.read_text().removesuffix("\n").split("\n")
    if lines[0] != f"# {tag}":
        raise CheckpointError(f"{path}: not a {tag} file")
    # the numbered lines after the tag: echo, manifest and checksum by prefix, the rest data
    sections: dict[str, list[tuple[int, str]]] = {"# config": [], "# tensor": [], "# checksum": []}
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition("\t")
        if kind in sections:
            sections[kind].append((lineno, rest))
        elif not line.startswith("#"):
            data.append((lineno, line))
    if not sections["# checksum"]:
        raise CheckpointError(f"{path}: missing checksum")
    digest = hashlib.sha256("\n".join(line for _, line in data).encode()).hexdigest()
    if digest != sections["# checksum"][-1][1]:
        raise CheckpointError(f"{path}: checksum mismatch; file is corrupt")
    echo = _required_entries(path, sections["# config"], echo_kinds)
    return ModelFile(path, echo, sections["# tensor"], data)
