import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from riskprop.checkpoint import load_checkpoint, save_checkpoint
from riskprop.classify import ClassifierModel, load_classifier, save_classifier
from riskprop.experiment import parse_experiment_config, run_all, run_conditions
from riskprop.graph import (
    DefaultEvent,
    load_events,
    load_graph,
    save_events,
    save_graph,
    sorted_unique,
)
from riskprop.hgmae import TrainConfig, load_embeddings, save_embeddings
from riskprop import table as table_mod
from riskprop.pairs import (
    PAIRS,
    PairDatasetSplit,
    PropagationPair,
    load_pairs,
    save_pairs,
)
from riskprop.synthetic import load_task_features, save_task_features
from riskprop.table import (
    Block,
    Check,
    GraphFormatError,
    format_value,
    parse_value,
    read_entries,
    read_record,
    read_table,
    record_fields,
    write_record,
    write_table,
)

from conftest import fresh_params, make_graph
from oracles import pairs_from_rows

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = (("name", str), ("count", int), ("score", float), Block("x", "x value"))


def test_roundtrip_every_kind(tmp_path):
    path = tmp_path / "t.tsv"
    names = ["a", "b%d", "c d"]
    counts = np.array([0, -7, 2**62])
    scores = np.array([0.1, -0.0, 1e-300])
    block = np.array([[1 / 3, np.pi], [-2.5, 1e300], [0.0, -1.0]])
    write_table(path, SCHEMA, [names, counts, scores, block])
    lines = path.read_text().splitlines()
    assert lines[0] == "name\tcount\tscore\tx0\tx1"
    assert lines[2] == "b%d\t-7\t-0\t-2.5\t1.0000000000000001e+300"
    got_names, got_counts, got_scores, got_block = read_table(path, SCHEMA)
    assert got_names.tolist() == names
    assert got_counts.dtype == np.int64 and got_counts.tolist() == counts.tolist()
    assert got_scores.tobytes() == scores.tobytes()
    assert got_block.flags.c_contiguous and got_block.tobytes() == block.tobytes()


def test_empty_table_and_zero_width_block(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, SCHEMA, [[], [], [], np.zeros((0, 3))])
    assert path.read_text() == "name\tcount\tscore\tx0\tx1\tx2\n"
    assert read_table(path, SCHEMA)[3].shape == (0, 3)
    write_table(path, (("id", int), Block("e", "e")), [[4, 5], np.zeros((2, 0))])
    assert path.read_text() == "id\n4\n5\n"
    assert read_table(path, (("id", int), Block("e", "e")))[1].shape == (2, 0)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="not found"):
        read_table(tmp_path / "nope.tsv", SCHEMA)


# (file, line, replacement, reason): one fault per case, in a table of rows
# a 0 1.5 2 3 / b 1 2.5 4 5 / c 2 3.5 6 7 on lines 2..4
_CODEC_FAULTS = [
    (1, "name\tcount\tscore\tx1", "bad header 'name\\tcount\\tscore\\tx1'"),
    (1, "name\tcount\tscore\tx0\ty1", "bad header 'name\\tcount\\tscore\\tx0\\ty1'"),
    (3, "b\t1\t2.5\t4", "expected 5 columns, got 4"),
    (3, "b\t1.0\t2.5\t4\t5", "bad count '1.0'"),
    (3, "b\t1\tnope\t4\t5", "bad score 'nope'"),
    (3, "b\t1\t2.5\t4\t5x", "bad x value"),
    # past int64: the column has no check, so the range step reports it
    (3, "b\t99999999999999999999\t2.5\t4\t5", "bad count '99999999999999999999'"),
    # within a line, columns are checked in order
    (3, "b\tx\ty\t4\t5", "bad count 'x'"),
    (3, "b\t1\ty\tz\t5", "bad score 'y'"),
]


def assert_codec_fault(path, lineno, text, reason, rows_ahead=0):
    """The table above with line `lineno` replaced by `text`, a later fault
    on line 4 and `rows_ahead` good rows after the header, fails naming the
    shifted line and `reason`."""
    block = [[2, 3], [4, 5], [6, 7]]
    write_table(path, SCHEMA, [["a", "b", "c"], [0, 1, 2], [1.5, 2.5, 3.5], block])
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    lines[3] = "c\tlater\t3.5\t6\t7"  # a fault further down is not the one reported
    lines[1:1] = ["a\t0\t1.5\t2\t3"] * rows_ahead
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError) as err:
        read_table(path, SCHEMA)
    assert str(err.value) == f"{path}:{lineno + rows_ahead if lineno > 1 else 1}: {reason}"


@pytest.mark.parametrize("lineno, text, reason", _CODEC_FAULTS)
def test_codec_error_names_first_bad_line(tmp_path, lineno, text, reason):
    assert_codec_fault(tmp_path / "t.tsv", lineno, text, reason)


def test_checks_run_after_their_column_and_in_order(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, SCHEMA, [["a", "b"], [1, -4], [0.5, 0.5], np.zeros((2, 1))])
    checks = [
        Check("score", lambda c: c["count"] < 0, "count {count} is negative ({name})"),
        Check("name", lambda c: c["name"] == "b", "name {name!r} taken"),
    ]
    with pytest.raises(GraphFormatError, match=r"t.tsv:3: name 'b' taken$"):
        read_table(path, SCHEMA, checks)
    with pytest.raises(GraphFormatError, match=r"t.tsv:3: count -4 is negative \(b\)$"):
        read_table(path, SCHEMA, checks[:1])
    # a bad cell in an earlier column comes before the check
    path.write_text(path.read_text().replace("b\t-4\t0.5", "b\t-4\tbad"))
    with pytest.raises(GraphFormatError, match=r"t.tsv:3: bad score 'bad'$"):
        read_table(path, SCHEMA, checks[:1])


def _write_artifacts(tmp_path):
    """One small file of each loaded table; returns table -> (path, loader)."""
    g = make_graph(3, {0: [(0, 1), (1, 2)]}, d_in=2, issuers=[0])
    save_graph(g, tmp_path)
    save_events([DefaultEvent(1, 0), DefaultEvent(2, 3)], tmp_path / "events.tsv")
    train = [PropagationPair(0, 1, 1, 2), PropagationPair(2, 1, 0, 1)]
    test = [PropagationPair(1, 0, 0, 2)]
    split = PairDatasetSplit(pairs_from_rows(train), pairs_from_rows(test), split_seed=0)
    save_pairs(split, tmp_path / "pairs.tsv")
    save_task_features({3: np.array([0.5, -1.0]), 7: np.array([2.0, 0.25])}, tmp_path / "task.tsv")
    save_embeddings(np.arange(6.0).reshape(3, 2), tmp_path / "emb.tsv")
    return {
        "nodes": (tmp_path / "nodes.tsv", lambda: load_graph(tmp_path)),
        "edges": (tmp_path / "edges.tsv", lambda: load_graph(tmp_path)),
        "events": (tmp_path / "events.tsv", lambda: load_events(tmp_path / "events.tsv", 3)),
        "pairs": (tmp_path / "pairs.tsv", lambda: load_pairs(tmp_path / "pairs.tsv")),
        "task": (tmp_path / "task.tsv", lambda: load_task_features(tmp_path / "task.tsv")),
        "emb": (tmp_path / "emb.tsv", lambda: load_embeddings(tmp_path / "emb.tsv")),
    }


# (table, line, replacement, reason): a bad header, a short row, a bad int
# cell and, where the table has one, a bad float cell, for every loader
_LOADER_FAULTS = [
    ("nodes", 1, "node_id\tflag\tf0\tf1", "bad header 'node_id\\tflag\\tf0\\tf1'"),
    ("nodes", 3, "1\t0\t0.5", "expected 4 columns, got 3"),
    ("nodes", 3, "1\tno\t0.5\t1", "bad is_issuer 'no'"),
    ("nodes", 3, "1\t0\t0.5\t1..5", "bad feature value"),
    ("edges", 1, "edge_type\tsrc", "bad header 'edge_type\\tsrc'"),
    ("edges", 3, "rel-0\t1", "expected 3 columns, got 2"),
    ("edges", 3, "rel-0\t1\ttwo", "bad dst 'two'"),
    ("events", 1, "node_id\ttime", "bad header 'node_id\\ttime'"),
    ("events", 3, "2", "expected 2 columns, got 1"),
    ("events", 3, "2\tsoon", "bad default_time 'soon'"),
    ("pairs", 1, "source_id\ttarget_id\thop", "bad header 'source_id\\ttarget_id\\thop'"),
    ("pairs", 3, "2\t1\t1\t0", "expected 5 columns, got 4"),
    ("pairs", 3, "2\t1\tfar\t0\ttrain", "bad hop 'far'"),
    ("pairs", 3, "2\t1\t1\t0\tvalid", "bad split 'valid'"),
    ("task", 1, "id\tt0\tt1", "bad header 'id\\tt0\\tt1'"),
    ("task", 3, "7\t2", "expected 3 columns, got 2"),
    ("task", 3, "7.0\t2\t0.25", "bad node_id '7.0'"),
    ("task", 3, "7\t2\tquarter", "bad task feature value"),
    ("emb", 1, "", "bad header ''"),
    ("emb", 3, "1\t2\t3\t4", "expected 3 columns, got 4"),
    ("emb", 3, "one\t2\t3", "bad node_id 'one'"),
    ("emb", 3, "1\t2\t3e", "bad embedding value"),
    # rows the classifier cannot use; within a line the first bad column is named
    ("pairs", 3, "2\t2\t1\t0\ttrain", "pair from node 2 to itself"),
    ("pairs", 3, "3\t3\t-5\t7\ttest", "pair from node 3 to itself"),
    ("pairs", 3, "0\t1\t0\t2\ttrain", "hop must be >= 1; got 0"),
    ("pairs", 3, "2\t1\t1\t2\ttrain", "label must be 0 or 1; got 2"),
    ("pairs", 3, "2\t1\t1\t-1\ttest", "label must be 0 or 1; got -1"),
    ("task", 3, "3\t2\t0.25", "duplicate task features for node 3"),
    ("task", 3, "-7\t2\t0.25", "negative node_id -7"),
    ("task", 3, "7\tnan\t0.25", "non-finite task feature value for node 7"),
    ("task", 3, "7\t2\t-inf", "non-finite task feature value for node 7"),
    ("emb", 3, "1\tnan\t3", "non-finite embedding value for node 1"),
    ("emb", 3, "1\t2\tinf", "non-finite embedding value for node 1"),
    ("nodes", 3, "1\t0\tnan\t1", "non-finite feature value for node 1"),
    ("events", 3, "-3\t0", "negative node_id -3"),
    ("events", 3, "3\t0", "event references unknown node id 3"),
    # ids no node has, and a pair listed twice, in one split or in both;
    # line 2 is the train pair 0 -> 1
    ("pairs", 3, "-2\t1\t1\t0\ttrain", "negative source_id -2"),
    ("pairs", 3, "2\t-1\t1\t0\ttrain", "negative target_id -1"),
    ("pairs", 3, "0\t1\t2\t1\ttrain", "repeated pair from node 0 to node 1"),
    ("pairs", 4, "0\t1\t1\t0\ttest", "repeated pair from node 0 to node 1"),
    # a column past int64 holds Python ints, which the repeat check also sorts
    ("pairs", 3, "99999999999999999999\t1\t1\t0\ttrain", "bad source_id '99999999999999999999'"),
]


def assert_loader_fault(tmp_path, table, lineno, text, reason):
    """`table`'s artifact with line `lineno` replaced by `text` fails to load
    naming that line and `reason`."""
    path, load = _write_artifacts(tmp_path)[table]
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError) as err:
        load()
    assert str(err.value) == f"{path}:{lineno}: {reason}"


@pytest.mark.parametrize(
    "table, lineno, text, reason",
    _LOADER_FAULTS,
    ids=[f"{t}:{n}-{i}" for i, (t, n, _, _) in enumerate(_LOADER_FAULTS)],
)
def test_loader_fault_is_graph_format_error_naming_line(tmp_path, table, lineno, text, reason):
    assert_loader_fault(tmp_path, table, lineno, text, reason)


# ---------------------------------------------------------------------------
# streaming: the codec in chunks of 1, 2 and 3 rows


def chunk_rows(monkeypatch, rows: int, ncols: int) -> None:
    """Make the codec write `rows` rows of `ncols` cells per chunk, and read
    `rows * ncols` characters at a time."""
    monkeypatch.setattr(table_mod, "_CHUNK_CELLS", rows * ncols)


def one_shot_text(schema, columns) -> str:
    """The table as one format over every cell, each by its kind's %
    format, tab-joined, one line per row: the unchunked codec's bytes."""
    names, texts = [], []  # texts: one list of cell texts per header column
    for col, values in zip(schema, columns):
        if isinstance(col, Block):
            block = np.asarray(values, dtype=np.float64)
            names += [f"{col.prefix}{j}" for j in range(block.shape[1])]
            texts += [["%.17g" % x for x in block[:, j].tolist()] for j in range(block.shape[1])]
        else:
            name, kind = col
            names.append(name)
            fmt = {int: "%d", float: "%.17g", str: "%s"}[kind]
            cells = values if kind is str else np.asarray(values).tolist()
            texts.append([fmt % x for x in cells])
    return "\t".join(names) + "\n" + "".join("\t".join(row) + "\n" for row in zip(*texts))


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_streamed_write_equals_one_shot_format(tmp_path, monkeypatch, rows):
    rng = np.random.default_rng(rows)
    path = tmp_path / "t.tsv"
    for n in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows + 1}):
        names = [["a", "b%d", "c d", "%s"][i % 4] for i in range(n)]
        counts = rng.integers(-(2**62), 2**62, size=n)
        scores, block = rng.standard_normal(n) / 3, rng.standard_normal((n, 2)) * 1e10
        tables = [
            (SCHEMA, [names, counts, scores, block]),
            ((("id", int), Block("e", "e")), [counts.tolist(), np.zeros((n, 0))]),
        ]
        for schema, columns in tables:
            want = one_shot_text(schema, columns)
            chunk_rows(monkeypatch, rows, want.partition("\n")[0].count("\t") + 1)
            write_table(path, schema, columns)
            assert path.read_bytes() == want.encode(), (n, schema)
            got = read_table(path, schema)
            assert [len(col) for col in got] == [n] * len(schema)
            assert got[1].tolist() == np.asarray(columns[1]).tolist()


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_streamed_save_pairs_equals_one_shot_format(tmp_path, monkeypatch, rows):
    chunk_rows(monkeypatch, rows, 5)
    path = tmp_path / "pairs.tsv"
    for n_train, n_test in [(0, 0), (1, 0), (0, 1), (rows - 1, 1), (rows, rows + 1)]:
        train = [PropagationPair(i, i + 1, i % 2, 1 + i % 3) for i in range(n_train)]
        test = [PropagationPair(i + 1, i, 1 - i % 2, 2) for i in range(n_test)]
        split = PairDatasetSplit(pairs_from_rows(train), pairs_from_rows(test), split_seed=0)
        save_pairs(split, path)
        columns = [
            [p.source_id for p in train + test],
            [p.target_id for p in train + test],
            [p.hop_distance for p in train + test],
            [p.label for p in train + test],
            ["train"] * n_train + ["test"] * n_test,
        ]
        assert path.read_bytes() == one_shot_text(PAIRS, columns).encode()
        loaded = load_pairs(path)
        assert list(loaded.train) == train and list(loaded.test) == test


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_streamed_str_column_keeps_one_object_per_value(tmp_path, monkeypatch, rows):
    path = tmp_path / "t.tsv"
    names = [["rel-0", "rel-1", "rel-2"][i % 3] for i in range(10)]
    write_table(path, SCHEMA, [names, list(range(10)), [0.5] * 10, np.zeros((10, 1))])
    chunk_rows(monkeypatch, rows, 4)
    got = read_table(path, SCHEMA)[0]
    assert got.tolist() == names
    assert len({id(name) for name in got}) == 3


# a blank line is ragged: its column count is the fault
_BLANK_LINE = (3, "", "expected 5 columns, got 1")


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("lineno, text, reason", [*_CODEC_FAULTS, _BLANK_LINE])
def test_codec_fault_in_a_later_chunk_names_its_line(
    tmp_path, monkeypatch, rows, lineno, text, reason
):
    """Three good rows ahead put a fault below the header past the first chunk."""
    chunk_rows(monkeypatch, rows, 5)
    assert_codec_fault(tmp_path / "t.tsv", lineno, text, reason, rows_ahead=3)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_int_past_int64_in_a_later_chunk_reaches_checks_as_a_python_int(
    tmp_path, monkeypatch, rows
):
    chunk_rows(monkeypatch, rows, 5)
    path = tmp_path / "t.tsv"
    write_table(path, SCHEMA, [["a"] * 8, list(range(8)), [0.5] * 8, np.zeros((8, 2))])
    big = 2**64 + 1
    path.write_text(path.read_text().replace("a\t6\t", f"a\t{big}\t"))
    check = Check("count", lambda c: c["count"] > 6, "count {count} is too big")
    with pytest.raises(GraphFormatError) as err:
        read_table(path, SCHEMA, [check])
    assert str(err.value) == f"{path}:8: count {big} is too big"
    with pytest.raises(GraphFormatError) as err:
        read_table(path, SCHEMA)
    assert str(err.value) == f"{path}:8: bad count '{big}'"


_LATER_LOADER_FAULTS = [
    *_LOADER_FAULTS,
    ("events", 3, "", "expected 2 columns, got 1"),
    ("edges", 3, "rel-0\t99999999999999999999\t2",
     "edge references unknown node id 99999999999999999999"),
]


@pytest.mark.parametrize(
    "table_name, lineno, text, reason",
    _LATER_LOADER_FAULTS,
    ids=[f"{t}:{n}-{i}" for i, (t, n, _, _) in enumerate(_LATER_LOADER_FAULTS)],
)
def test_loader_fault_in_a_later_chunk_names_its_line(
    tmp_path, monkeypatch, table_name, lineno, text, reason
):
    """One character per read, so each line below the header ends its own
    chunk, and a fault on line 3 lies past the first."""
    monkeypatch.setattr(table_mod, "_CHUNK_CELLS", 1)
    assert_loader_fault(tmp_path, table_name, lineno, text, reason)


# the line breaks universal newlines read as "\n"
_BREAKS = ["\n", "\r\n", "\r"]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_table_lines_may_end_in_any_break(tmp_path, monkeypatch, rows):
    path = tmp_path / "t.tsv"
    n = 2 * len(_BREAKS) + 1
    columns = [
        [f"n{i}" for i in range(n)], list(range(n)), [i / 3 for i in range(n)],
        np.arange(2.0 * n).reshape(n, 2),
    ]
    write_table(path, SCHEMA, columns)
    lines = path.read_text().splitlines()
    path.write_text("".join(line + _BREAKS[i % len(_BREAKS)] for i, line in enumerate(lines)),
                    newline="")
    chunk_rows(monkeypatch, rows, 5)
    names, counts, scores, block = read_table(path, SCHEMA)
    assert names.tolist() == columns[0] and counts.tolist() == columns[1]
    assert scores.tolist() == columns[2] and block.tobytes() == columns[3].tobytes()


@pytest.mark.parametrize("table", ["nodes", "edges", "events", "pairs", "task", "emb"])
def test_table_cut_short_names_its_last_line(tmp_path, table):
    """A table cut inside any line, the header included, or just before its
    last line break fails naming the line it ends in."""
    path, load = _write_artifacts(tmp_path)[table]
    text = path.read_text()
    ends = [i + 1 for i, char in enumerate(text) if char == "\n"]
    for lineno, (lo, end) in enumerate(zip([0, *ends], ends), start=1):
        for cut in sorted({lo + 1, (lo + end) // 2, end - 1}):
            path.write_text(text[:cut])
            with pytest.raises(GraphFormatError) as err:
                load()
            want = f"{path}:{lineno}: no line break at the end; the file is cut short"
            assert str(err.value) == want, (cut, text[:cut])


def _write_model_files(tmp_path):
    """A small checkpoint and classifier file; returns name -> (path, loader)."""
    cfg = TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=3)
    params = fresh_params(make_graph(3, {0: [(0, 1)]}, d_in=2), cfg)
    ckpt, clf = tmp_path / "checkpoint.tsv", tmp_path / "classifier.tsv"
    save_checkpoint(params, cfg, ckpt)
    save_classifier(ClassifierModel(np.array([0.5, -1.0]), 0.25, np.zeros(2), np.ones(2)), clf)
    return {
        "checkpoint": (ckpt, lambda: load_checkpoint(ckpt)),
        "classifier": (clf, lambda: load_classifier(clf)),
    }


EDIT_KINDS = ("cell", "delete", "duplicate", "swap", "truncate", "lose-tab", "extra-tab", "digit")
CELL_TOKENS = ("x", "", "-1", "0", "2.5", "nan", "1e999")


def edit_text(text: str, kind: str, rng: np.random.Generator) -> str:
    """`text` with one seeded edit of `kind`: a cell (or one space-separated
    value in it) replaced by a token, a line deleted, duplicated or swapped
    with another, the text cut short, a tab lost or added, or one digit changed."""
    if kind == "truncate":
        return text[: rng.integers(len(text))]
    lines = text.splitlines()
    i = int(rng.integers(len(lines)))
    line = lines[i]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "swap":
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], line
    elif kind == "cell":
        cells = line.split("\t")
        j = int(rng.integers(len(cells)))
        values = cells[j].split(" ")
        values[rng.integers(len(values))] = str(rng.choice(CELL_TOKENS))
        cells[j] = " ".join(values)
        lines[i] = "\t".join(cells)
    elif kind == "extra-tab":
        k = int(rng.integers(len(line) + 1))
        lines[i] = line[:k] + "\t" + line[k:]
    else:  # lose-tab or digit: one tab dropped or one digit redrawn, if the line has one
        chars = "\t" if kind == "lose-tab" else "0123456789"
        spots = [k for k, c in enumerate(line) if c in chars]
        if spots:
            k = int(rng.choice(spots))
            new = "" if kind == "lose-tab" else str(rng.integers(10))
            lines[i] = line[:k] + new + line[k + 1 :]
    return "\n".join(lines) + "\n"


def with_fresh_checksum(text: str) -> str:
    """A model file rewritten with the checksum of its (edited) data lines."""
    lines = text.splitlines()
    data = "\n".join(line for line in lines[1:] if not line.startswith("#"))
    digest = hashlib.sha256(data.encode()).hexdigest()
    fresh = [f"# checksum\t{digest}" if line.startswith("# checksum\t") else line for line in lines]
    return "\n".join(fresh) + "\n"


def sweep_outcomes(artifacts: dict, edits_per_artifact: int = 150, seed: int = 0) -> list[tuple]:
    """(artifact, edit, outcome) for seeded single edits of each artifact
    (name -> (path, loader)), plus each model file's config echo value set
    to each cell token. The outcome is "loads" or the exception's type and
    message; a warning counts as an exception."""
    rng = np.random.default_rng(seed)
    edits = []
    for name, (path, _) in artifacts.items():
        text = path.read_text()
        for n in range(edits_per_artifact):
            kind = EDIT_KINDS[n % len(EDIT_KINDS)]
            edited = edit_text(text, kind, rng)
            if name in ("checkpoint", "classifier") and rng.integers(2):
                edited, kind = with_fresh_checksum(edited), kind + "+checksum"
            edits.append((name, f"{kind}-{n}", edited))
        for line in (line for line in text.splitlines() if line.startswith("# config\t")):
            key = line.split("\t")[1]
            edits += [
                (name, f"echo-{key}={token!r}", text.replace(line, f"# config\t{key}\t{token}"))
                for token in CELL_TOKENS
            ]
    outcomes = []
    for name, edit, edited in edits:
        path, load = artifacts[name]
        original = path.read_text()
        path.write_text(edited)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                load()
            outcome = "loads"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        path.write_text(original)
        outcomes.append((name, edit, outcome))
    return outcomes


def test_every_single_edit_loads_or_names_its_file(tmp_path):
    """No edit of an artifact escapes as a bare exception or a warning: each
    either loads or fails with the codec's error naming one of the files the
    loader reads, nodes.tsv and edges.tsv for the graph."""
    artifacts = _write_artifacts(tmp_path) | _write_model_files(tmp_path)
    graph_files = (str(artifacts["nodes"][0]), str(artifacts["edges"][0]))
    outcomes = sweep_outcomes(artifacts)
    # the checkpoint echo: TrainConfig's 10 keys and d_in; the classifier's: d
    assert len(outcomes) == 8 * 150 + (11 + 1) * len(CELL_TOKENS)
    for name, edit, outcome in outcomes:
        inputs = graph_files if name in ("nodes", "edges") else (str(artifacts[name][0]),)
        error = outcome.partition(": ")
        assert outcome == "loads" or (
            error[0] in ("GraphFormatError", "CheckpointError") and error[2].startswith(inputs)
        ), (name, edit, outcome)


def test_load_events_without_a_node_count_accepts_any_nonnegative_id(tmp_path):
    save_events([DefaultEvent(999, 0)], tmp_path / "events.tsv")
    assert load_events(tmp_path / "events.tsv") == [DefaultEvent(999, 0)]


def test_only_table_py_spells_the_float_text_format():
    """table.py owns the artifacts' %.17g float text; another module writing
    its own would be a second codec."""
    src = REPO_ROOT / "src" / "riskprop"
    spelled = sorted(p.name for p in src.glob("*.py") if "17g" in p.read_text())
    assert spelled == ["table.py"]


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
def test_sorted_unique_matches_np_unique(size):
    values = np.random.default_rng(size).integers(-5, 40, size=(size, 2))
    assert np.array_equal(sorted_unique(values), np.unique(values))


def test_run_all_smoke_tree_matches_recorded_digests(tmp_path):
    """Every file of the smoke-config run-all tree, pinned by sha256 at the
    commit recorded in tests/artifact_reference.json."""
    ref = json.loads((REPO_ROOT / "tests" / "artifact_reference.json").read_text())
    exp = parse_experiment_config(REPO_ROOT / "configs" / "smoke.config")
    results = run_all(exp, tmp_path, exp.seeds)
    got = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert got == ref["sha256"]
    assert run_conditions(exp).rows == results.rows


@pytest.mark.parametrize(
    "kind, value, text",
    [
        (int, -7, "-7"),
        (int, 2**70, "1180591620717411303424"),
        (float, 0.1, "0.1"),
        (float, -0.0, "-0.0"),
        (float, 1 / 3, "0.3333333333333333"),
        (float, 1e-300, "1e-300"),
        (str, "out dir/x", "out dir/x"),
        (tuple[int, ...], (0, 1, 2), "0,1,2"),
        (tuple[float, ...], (0.05, 0.0, 2 / 3), "0.05,0.0,0.6666666666666666"),
    ],
)
def test_value_roundtrip_every_kind(kind, value, text):
    assert format_value(value) == text
    got = parse_value(kind, text)
    assert type(got) is type(value) and repr(got) == repr(value)


@pytest.mark.parametrize("kind, text", [(int, "1.5"), (float, "fast"), (tuple[int, ...], "2,x")])
def test_unparseable_value_raises(kind, text):
    with pytest.raises(ValueError):
        parse_value(kind, text)


@dataclass
class Inner:
    rate: float = 0.5
    sizes: tuple[int, ...] = (1, 2)


@dataclass
class Outer:
    name: str = "a"
    inner: Inner = field(default_factory=Inner)
    count: int = 3


def test_record_keys_nested_fields_by_section(tmp_path):
    record = Outer(name="b c", inner=Inner(rate=1 / 3, sizes=(4,)), count=-1)
    assert record_fields(Outer) == {
        "name": str, "inner.rate": float, "inner.sizes": tuple[int, ...], "count": int
    }
    write_record(tmp_path / "r.config", record)
    text = "name=b c\ninner.rate=0.3333333333333333\ninner.sizes=4\ncount=-1\n"
    assert (tmp_path / "r.config").read_text() == text
    assert read_record(tmp_path / "r.config", Outer) == record
    write_record(tmp_path / "r.config", record, removed={"inner.sizes": "fixed"})
    assert "sizes" not in (tmp_path / "r.config").read_text()


def test_read_entries_reports_problems_in_line_order():
    lines = [(1, "a\t1"), (3, "b"), (4, "c\t2"), (5, "a\t3"), (6, "d\tx"), (7, "e\t5")]
    kinds = {"a": int, "b": int, "d": int, "f": str}
    entries, problems = read_entries("p", lines, "\t", kinds, {"e": "gone"}, required=True)
    assert entries == {"a": (1, 1)}
    assert problems == [
        "p:3: expected key<TAB>value",
        "p:4: unknown key 'c'",
        "p:5: duplicate key 'a'",
        "p:6: d: cannot parse 'x'",
        "p:7: key 'e' is removed: gone",
        "p:8: missing key 'b'",
        "p:8: missing key 'd'",
        "p:8: missing key 'f'",
    ]
