"""One seed end to end: world -> embeddings -> pairs -> classifier -> metrics.

Propagation pairs join every defaulted issuer (source) with the issuers
within three hops (targets); a pair is black only when the target defaulted
strictly after the source. The classifier input concatenates task features
and the pre-trained embedding for both endpoints.
"""

import numpy as np

from riskprop import (
    GenConfig,
    TrainConfig,
    attach_task_features,
    build_pairs,
    evaluate,
    generate_graph,
    infer_embeddings,
    pretrain,
    simulate_cascade,
    split_pairs,
    task_feature_table,
    train_classifier,
)
from riskprop.classify import make_fusion_fn

SEED = 3

gen = GenConfig(num_nodes=120, issuer_fraction=0.5, rng_seed=SEED)
g = generate_graph(gen)
events = simulate_cascade(g, gen)
task = task_feature_table(g, attach_task_features(g, events, gen))
print(f"world: {g.num_nodes} nodes, {len(events)} defaults, {len(task)} issuers")

pairs = build_pairs(g, events, n_hops=3, seed=SEED)
split = split_pairs(pairs, 0.8, seed=SEED)
blacks = int(pairs.label.sum())
print(f"pairs after balancing: {len(pairs)} ({blacks} black), train {len(split.train)} / test {len(split.test)}")

cfg = TrainConfig(epochs=120, d_emb=16, hidden_heads=2, hidden_head_dim=8, rng_seed=SEED)
params, _ = pretrain(g, cfg)
emb = infer_embeddings(g, params)

for name, embeddings in (
    ("task features only", np.zeros((g.num_nodes, 0))),
    ("task + embeddings", emb),
):
    fusion = make_fusion_fn(task, embeddings)
    model = train_classifier(split, fusion)
    metrics = evaluate(model, split.test, fusion)
    print(
        f"{name:<20} micro-F1 {metrics['micro_f1']:.3f}  "
        f"accuracy {metrics['accuracy']:.3f}  auc {metrics['auc']:.3f}"
    )
