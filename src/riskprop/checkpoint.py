"""Model parameter checkpoints: text format with manifest and checksum.

Layout: comment lines carry a config echo and one manifest entry per tensor
(name, shape), then a sha256 over the data lines, then one data line per
tensor with 17-significant-digit values. Loading verifies the checksum,
every manifest shape, and that the shapes match the architecture implied by
the config echo.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .hgmae import ModelParams, TrainConfig, init_params
from .table import atomic_write_text

FORMAT_TAG = "riskprop-checkpoint v1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(params: ModelParams, cfg: TrainConfig, path: Path | str) -> None:
    tensors = params.named_tensors()
    data_lines = []
    for name, t in tensors.items():
        values = " ".join(format(x, ".17g") for x in t.data.reshape(-1))
        data_lines.append(f"{name}\t{values}")
    digest = hashlib.sha256("\n".join(data_lines).encode()).hexdigest()

    head = [f"# {FORMAT_TAG}"]
    for f in fields(cfg):
        head.append(f"# config\t{f.name}\t{getattr(cfg, f.name)!r}")
    head.append(f"# config\td_in\t{params.d_in}")
    for name, t in tensors.items():
        shape = ",".join(str(s) for s in t.data.shape)
        head.append(f"# tensor\t{name}\t{shape}")
    head.append(f"# checksum\t{digest}")
    atomic_write_text(Path(path), "\n".join(head + data_lines) + "\n")


def load_checkpoint(path: Path | str) -> tuple[ModelParams, TrainConfig]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# {FORMAT_TAG}":
        raise CheckpointError(f"{path}: not a {FORMAT_TAG} file")

    config_raw: dict[str, str] = {}
    manifest: dict[str, tuple[int, ...]] = {}
    checksum = None
    data_lines: list[str] = []
    for line in lines[1:]:
        if line.startswith("# config\t"):
            _, key, val = line.split("\t", 2)
            config_raw[key] = val
        elif line.startswith("# tensor\t"):
            _, name, shape = line.split("\t", 2)
            manifest[name] = tuple(int(s) for s in shape.split(","))
        elif line.startswith("# checksum\t"):
            checksum = line.split("\t", 1)[1]
        elif line.startswith("#"):
            continue
        else:
            data_lines.append(line)

    if checksum is None:
        raise CheckpointError(f"{path}: missing checksum")
    digest = hashlib.sha256("\n".join(data_lines).encode()).hexdigest()
    if digest != checksum:
        raise CheckpointError(f"{path}: checksum mismatch; file is corrupt")

    d_in = int(config_raw.pop("d_in"))
    cfg_kwargs: dict[str, object] = {}
    for f in fields(TrainConfig):
        if f.name in config_raw:
            raw = config_raw[f.name]
            cfg_kwargs[f.name] = float(raw) if f.type == "float" else int(raw)
    cfg = TrainConfig(**cfg_kwargs)

    # the architecture implied by the config: names, shapes and layer structure
    params = init_params(d_in, cfg, np.random.default_rng(0))
    expected = {name: t.data.shape for name, t in params.named_tensors().items()}
    if set(manifest) != set(expected):
        missing = sorted(set(expected) - set(manifest))
        extra = sorted(set(manifest) - set(expected))
        raise CheckpointError(f"{path}: manifest mismatch (missing {missing}, extra {extra})")
    for name, shape in manifest.items():
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape}, config implies {expected[name]}"
            )

    arrays: dict[str, np.ndarray] = {}
    for line in data_lines:
        name, values = line.split("\t", 1)
        if name not in manifest:
            raise CheckpointError(f"{path}: data for unknown tensor {name!r}")
        arr = np.array([float(v) for v in values.split(" ")], dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        want = manifest[name]
        if arr.size != int(np.prod(want)):
            raise CheckpointError(f"{path}: tensor {name!r} has {arr.size} values, wants {want}")
        arrays[name] = arr.reshape(want)
    if set(arrays) != set(manifest):
        raise CheckpointError(f"{path}: data lines missing for {sorted(set(manifest) - set(arrays))}")

    for name, t in params.named_tensors().items():
        t.data = arrays[name]
    return params, cfg
