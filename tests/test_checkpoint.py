import hashlib

import numpy as np
import pytest

from riskprop.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from riskprop.hgmae import TrainConfig, init_params, param_shapes

from conftest import fresh_params, make_graph


def trained_ish_params(cfg):
    g = make_graph(8, {0: [(i, i + 1) for i in range(7)]}, d_in=5)
    return fresh_params(g, cfg)


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg = TrainConfig(d_emb=6, hidden_heads=2, hidden_head_dim=3, epochs=17, lr=0.004, rng_seed=9)
    params = trained_ish_params(cfg)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for name, arr in params.named_arrays().items():
        other = loaded.named_arrays()[name]
        assert arr.tobytes() == other.tobytes(), name
    # identical bytes when re-saved
    save_checkpoint(loaded, loaded_cfg, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="checkpoint not found"):
        load_checkpoint(tmp_path / "nope.tsv")


def test_checkpoint_corruption_detected(tmp_path):
    cfg = TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=3)
    params = trained_ish_params(cfg)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(params, cfg, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("mask_token\t"))
    value = lines[idx].split("\t")[1].split(" ")[0]
    lines[idx] = lines[idx].replace(value, "9.5", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_bad_number_names_line_tensor_and_token(tmp_path):
    # a rewritten file with a fresh checksum passes the checksum, not the parse
    cfg = TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=3)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(trained_ish_params(cfg), cfg, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("mask_token\t"))
    name, values = lines[idx].split("\t")
    lines[idx] = name + "\t" + " ".join(["x"] + values.split(" ")[1:])
    data = [l for l in lines if not l.startswith("#")]
    digest = hashlib.sha256("\n".join(data).encode()).hexdigest()
    lines = [f"# checksum\t{digest}" if l.startswith("# checksum\t") else l for l in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}:{idx + 1}: tensor 'mask_token': bad number 'x'"


def test_checkpoint_shape_validated_against_config(tmp_path):
    cfg = TrainConfig(d_emb=4, hidden_heads=2, hidden_head_dim=3)
    params = trained_ish_params(cfg)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(params, cfg, path)
    # claim a different embedding width in the config echo
    text = path.read_text().replace("# config\td_emb\t4", "# config\td_emb\t8")
    path.write_text(text)
    with pytest.raises(CheckpointError, match="shape|manifest"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.tsv"
    path.write_text("just some text\n")
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(path)


def _replace(lineno, text):
    return lambda ls: ls[: lineno - 1] + [text] + ls[lineno:]


@pytest.mark.parametrize(
    "corrupt, where, reason",
    [
        (lambda ls: ls[:11] + ls[12:], 12, "missing key 'd_in'"),
        (
            _replace(13, "# tensor\tencoder.0.head0.W\t2,x"),
            13,
            "encoder.0.head0.W: cannot parse '2,x'",
        ),
        (
            _replace(13, "# tensor\tencoder.0.head0.W\t3,4"),
            13,
            "tensor 'encoder.0.head0.W' has shape (3, 4), config implies (3, 5)",
        ),
        (lambda ls: ls[:19] + ls[20:], 20, "missing key 'remask_token'"),
        (_replace(8, "# config\tlr\tfast"), 8, "lr: cannot parse 'fast'"),
        (_replace(8, "# config\tlr"), 8, "expected key<TAB>value"),
        (lambda ls: ls[:11] + ["# config\tbogus\t1"] + ls[11:], 12, "unknown key 'bogus'"),
        (lambda ls: ls[:11] + [ls[7]] + ls[11:], 12, "duplicate key 'lr'"),
        # the echo sizes the model: a size the manifest does not list fails
        # before anything of that size is allocated
        pytest.param(_replace(12, "# config\td_in\t-3"), 12, "d_in must be >= 1", id="d_in=-3"),
        pytest.param(_replace(12, "# config\td_in\t0"), 12, "d_in must be >= 1", id="d_in=0"),
        pytest.param(
            _replace(12, "# config\td_in\t9999999999"),
            13,
            "tensor 'encoder.0.head0.W' has shape (3, 5), config implies (3, 9999999999)",
            id="huge-d_in",
        ),
        pytest.param(
            _replace(12, "# config\td_in\t99999999999999999999999"),
            13,
            "tensor 'encoder.0.head0.W' has shape (3, 5), "
            "config implies (3, 99999999999999999999999)",
            id="d_in-past-int64",
        ),
        pytest.param(
            _replace(6, "# config\td_emb\t99999999999"),
            15,
            "tensor 'encoder.1.head0.W' has shape (4, 3), config implies (99999999999, 3)",
            id="huge-d_emb",
        ),
        pytest.param(
            _replace(9, "# config\thidden_heads\t99999999999999999999999"),
            9,
            "hidden_heads 99999999999999999999999 is more than the 8 tensors of the manifest",
            id="huge-hidden_heads",
        ),
    ],
)
def test_checkpoint_header_fault_names_line_and_reason(tmp_path, corrupt, where, reason):
    cfg = TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=3)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(trained_ish_params(cfg), cfg, path)
    lines = path.read_text().splitlines()
    assert lines[11] == "# config\td_in\t5" and lines[19] == "# tensor\tremask_token\t4"
    path.write_text("\n".join(corrupt(lines)) + "\n")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}:{where}: {reason}"


def test_checkpoint_invalid_config_echo_names_file(tmp_path):
    cfg = TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=3)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(trained_ish_params(cfg), cfg, path)
    path.write_text(path.read_text().replace("# config\tlr\t0.005", "# config\tlr\t-1.0"))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: invalid TrainConfig: lr must be > 0"


@pytest.mark.parametrize("d_in, heads", [(5, 1), (16, 4)])
def test_param_shapes_are_the_shapes_init_params_allocates(d_in, heads):
    cfg = TrainConfig(d_emb=6, hidden_heads=heads, hidden_head_dim=3)
    arrays = init_params(d_in, cfg, np.random.default_rng(0)).named_arrays()
    assert list(param_shapes(d_in, cfg).items()) == [(n, a.shape) for n, a in arrays.items()]
