"""Model parameter checkpoints: text format with manifest and checksum.

Layout: comment lines carry a config echo and one manifest entry per tensor
(name, shape), then a sha256 over the data lines, then one data line per
tensor with 17-significant-digit values. Loading verifies the checksum, then
that the echo, manifest and data match the architecture the echo implies; a
malformed header line raises CheckpointError naming path:line.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .hgmae import ModelParams, TrainConfig, init_params
from .table import (
    atomic_write_text, build_record, format_value, parse_floats, read_entries, record_fields
)

FORMAT_TAG = "riskprop-checkpoint v1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(params: ModelParams, cfg: TrainConfig, path: Path | str) -> None:
    arrays = params.named_arrays()
    data_lines = []
    for name, arr in arrays.items():
        values = " ".join(format(x, ".17g") for x in arr.reshape(-1))
        data_lines.append(f"{name}\t{values}")
    digest = hashlib.sha256("\n".join(data_lines).encode()).hexdigest()

    head = [f"# {FORMAT_TAG}"]
    for key in record_fields(TrainConfig):
        head.append(f"# config\t{key}\t{format_value(getattr(cfg, key))}")
    head.append(f"# config\td_in\t{params.d_in}")
    for name, arr in arrays.items():
        head.append(f"# tensor\t{name}\t{format_value(arr.shape)}")
    head.append(f"# checksum\t{digest}")
    atomic_write_text(Path(path), "\n".join(head + data_lines) + "\n")


def load_checkpoint(path: Path | str) -> tuple[ModelParams, TrainConfig]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# {FORMAT_TAG}":
        raise CheckpointError(f"{path}: not a {FORMAT_TAG} file")

    # the numbered `key<TAB>value` lines of the config echo, manifest and data
    sections: dict[str, list[tuple[int, str]]] = {"# config": [], "# tensor": [], "data": []}
    checksum = None
    for lineno, line in enumerate(lines[1:], start=2):
        tag, _, rest = line.partition("\t")
        if tag in ("# config", "# tensor"):
            sections[tag].append((lineno, rest))
        elif tag == "# checksum":
            checksum = rest
        elif not line.startswith("#"):
            sections["data"].append((lineno, line))

    if checksum is None:
        raise CheckpointError(f"{path}: missing checksum")
    digest = hashlib.sha256("\n".join(line for _, line in sections["data"]).encode()).hexdigest()
    if digest != checksum:
        raise CheckpointError(f"{path}: checksum mismatch; file is corrupt")

    def read_section(tag: str, kinds: dict) -> dict[str, tuple[int, object]]:
        """The section's entries; its first problem, an absent key included,
        raises CheckpointError."""
        entries, problems = read_entries(path, sections[tag], "\t", kinds, required=True)
        if problems:
            raise CheckpointError(problems[0])
        return entries

    echo = read_section("# config", {**record_fields(TrainConfig), "d_in": int})
    problems: list[str] = []
    cfg = build_record(path, TrainConfig, echo, problems)
    if problems:
        raise CheckpointError(problems[0])

    # the architecture implied by the config: names, shapes and layer structure
    params = init_params(echo["d_in"][1], cfg, np.random.default_rng(0))
    expected = {name: arr.shape for name, arr in params.named_arrays().items()}
    manifest = read_section("# tensor", dict.fromkeys(expected, tuple[int, ...]))
    for name, (lineno, shape) in manifest.items():
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}:{lineno}: tensor {name!r} has shape {shape}, config implies {expected[name]}"
            )
    data = read_section("data", dict.fromkeys(expected, str))
    for name, target in params.named_arrays().items():
        lineno, values = data[name]
        where = f"{path}:{lineno}: tensor {name!r}"
        try:
            arr = parse_floats(values)
        except ValueError as exc:
            raise CheckpointError(f"{where}: {exc}") from None
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{where} has non-finite values")
        if arr.size != int(np.prod(expected[name])):
            raise CheckpointError(f"{where} has {arr.size} values, wants {expected[name]}")
        target[...] = arr.reshape(expected[name])
    return params, cfg
