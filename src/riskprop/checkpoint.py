"""Model parameter checkpoints, as table.py model files: the echo holds every
TrainConfig field and the input width d_in, and the arrays are named_arrays()
of the architecture init_params builds from them. The echo sizes every
array, so the loader checks those sizes against the manifest before it
allocates any of them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .hgmae import ModelParams, TrainConfig, init_params, param_shapes
from .table import CheckpointError, build_record, read_model_file, record_fields, write_model_file

FORMAT_TAG = "riskprop-checkpoint v1"


def save_checkpoint(params: ModelParams, cfg: TrainConfig, path: Path | str) -> None:
    echo = {key: getattr(cfg, key) for key in record_fields(TrainConfig)} | {"d_in": params.d_in}
    write_model_file(path, FORMAT_TAG, echo, params.named_arrays())


def load_checkpoint(path: Path | str) -> tuple[ModelParams, TrainConfig]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    f = read_model_file(path, FORMAT_TAG, {**record_fields(TrainConfig), "d_in": int})
    problems: list[str] = []
    cfg = build_record(path, TrainConfig, f.echo, problems)
    if problems:
        raise CheckpointError(problems[0])
    lineno, d_in = f.echo["d_in"]
    if d_in < 1:
        raise CheckpointError(f"{path}:{lineno}: d_in must be >= 1")
    lineno, heads = f.echo["hidden_heads"]
    # each head has two tensors: more heads than tensors cannot match, and
    # listing their names would cost as much as the sizes it guards against
    if heads > len(f.manifest):
        raise CheckpointError(
            f"{path}:{lineno}: hidden_heads {heads} is more than the "
            f"{len(f.manifest)} tensors of the manifest"
        )
    arrays = f.arrays(param_shapes(d_in, cfg))
    params = init_params(d_in, cfg, np.random.default_rng(0))
    for name, target in params.named_arrays().items():
        target[...] = arrays[name]
    return params, cfg
