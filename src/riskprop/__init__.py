"""riskprop: heterogeneous-graph masked-autoencoder pre-training and
default-risk propagation prediction on synthetic enterprise graphs."""

from .autodiff import NumericFault
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .classify import (
    ClassifierConfig,
    ClassifierModel,
    binary_auc,
    evaluate,
    make_fusion_fn,
    micro_f1,
    train_classifier,
)
from .experiment import (
    CONDITIONS,
    ConditionResults,
    ExperimentConfig,
    PairConfig,
    parse_experiment_config,
    run_conditions,
    write_experiment_config,
)
from .gat import GATLayerParams, gat_layer_forward, init_gat_layer
from .graph import (
    DefaultEvent,
    GraphFormatError,
    HeteroGraph,
    load_events,
    load_graph,
    save_events,
    save_graph,
)
from .hgmae import (
    MaskingError,
    MaskPlan,
    ModelParams,
    Term,
    TrainConfig,
    apply_mask,
    hgmae_loss,
    hgmae_step,
    infer_embeddings,
    init_params,
    make_step_plans,
    plan_graph,
    pretrain,
    remask_and_decode,
    sample_mask,
    sce_loss,
)
from .optim import AdamState, adam_step
from .pairs import (
    CandidatePairs,
    PairConstructionError,
    PairDatasetSplit,
    PropagationPair,
    build_pairs,
    enumerate_candidate_pairs,
    split_pairs,
)
from .synthetic import (
    ConfigValidationError,
    GenConfig,
    attach_task_features,
    community_assignment,
    generate_graph,
    simulate_cascade,
    task_feature_table,
)

__version__ = "0.1.0"
