from pathlib import Path

import pytest

from riskprop.experiment import (
    ConfigError,
    ExperimentConfig,
    parse_experiment_config,
    write_experiment_config,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(seeds=(3, 7), output_dir="elsewhere")
    write_experiment_config(cfg, tmp_path / "exp.config")
    assert parse_experiment_config(tmp_path / "exp.config") == cfg


def test_shipped_default_config_matches_code_defaults():
    parsed = parse_experiment_config(REPO_ROOT / "configs" / "default.config")
    assert parsed == ExperimentConfig()


@pytest.mark.parametrize("name", ["default.config", "smoke.config"])
def test_shipped_config_rewrites_to_its_own_bytes(tmp_path, name):
    path = REPO_ROOT / "configs" / name
    write_experiment_config(parse_experiment_config(path), tmp_path / name)
    assert (tmp_path / name).read_bytes() == path.read_bytes()


def test_shipped_smoke_config_parses():
    cfg = parse_experiment_config(REPO_ROOT / "configs" / "smoke.config")
    assert cfg.pretrain.epochs < 100  # it must stay cheap


def test_partial_config_keeps_defaults(tmp_path):
    (tmp_path / "exp.config").write_text("gen.num_nodes=50\nseeds=1\n")
    cfg = parse_experiment_config(tmp_path / "exp.config")
    assert cfg.gen.num_nodes == 50
    assert cfg.seeds == (1,)
    assert cfg.pretrain == ExperimentConfig().pretrain


def test_comments_and_blank_lines_allowed(tmp_path):
    (tmp_path / "exp.config").write_text(
        "# a comment\n\ngen.num_nodes=64   # trailing comment\n"
    )
    assert parse_experiment_config(tmp_path / "exp.config").gen.num_nodes == 64


def test_all_problems_reported_together(tmp_path):
    (tmp_path / "exp.config").write_text(
        "gen.num_nodes=not-a-number\n"
        "gen.bogus_key=1\n"
        "mystery=2\n"
        "pretrain.mask_ratio=2.0\n"
    )
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(tmp_path / "exp.config")
    msg = str(exc.value)
    assert "gen.num_nodes" in msg
    assert "bogus_key" in msg
    assert "mystery" in msg
    assert "mask_ratio" in msg


def test_missing_config_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_experiment_config(tmp_path / "absent.config")


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(seeds=())


def _problems(tmp_path, text):
    path = tmp_path / "exp.config"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(path)
    head, *problems = str(exc.value).split("\n  ")
    assert head == "invalid ExperimentConfig file:"
    return [p.replace(str(path), "exp.config") for p in problems]


def test_every_problem_names_its_line_in_line_order(tmp_path):
    text = (
        "seeds=1,x\n"
        "gen.num_nodes=50\n"
        "# a comment\n"
        "gen.num_nodes=60\n"
        "pretrain.lr=fast  # trailing comment\n"
        "no separator here\n"
        "gen.noise_std=0.1\n"
    )
    assert _problems(tmp_path, text) == [
        "exp.config:1: seeds: cannot parse '1,x'",
        "exp.config:4: duplicate key 'gen.num_nodes'",
        "exp.config:5: pretrain.lr: cannot parse 'fast'",
        "exp.config:6: expected key=value",
    ]


def test_keys_that_set_nothing_are_rejected_with_the_reason(tmp_path):
    text = "gen.rng_seed=3\npretrain.rng_seed=3\nclassifier.kind=logistic\n"
    assert _problems(tmp_path, text) == [
        "exp.config:1: key 'gen.rng_seed' is removed: each world's seed comes from seeds=",
        "exp.config:2: key 'pretrain.rng_seed' is removed: pre-training's seed comes from seeds=",
        "exp.config:3: key 'classifier.kind' is removed: the classifier is always logistic",
    ]


def test_pair_and_classifier_settings_validated_with_the_rest(tmp_path):
    text = (
        "gen.bogus=1\n"
        "pairs.train_frac=1.5\n"
        "pairs.n_hops=0\n"
        "classifier.iterations=-3\n"
        "classifier.lr=-0.1\n"
        "classifier.l2=-5\n"
    )
    assert _problems(tmp_path, text) == [
        "exp.config:1: unknown key 'gen.bogus'",
        "exp.config: invalid PairConfig: n_hops must be >= 1; train_frac must be in (0, 1)",
        "exp.config: invalid ClassifierConfig: iterations must be >= 0; lr must be > 0; "
        "l2 must be >= 0",
    ]
