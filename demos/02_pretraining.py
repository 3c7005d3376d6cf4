"""Pre-train the masked autoencoder and watch the reconstruction loss.

Half the nodes' feature rows are corrupted each epoch (a learnable token, a
15% share swapped with another node's row), the attention encoder/decoder
reconstructs them, and the loss adds one term per relation-type subgraph on
top of the full-graph term. Afterwards, embeddings come from the encoder
alone, no masking.
"""

import numpy as np

from riskprop import GenConfig, TrainConfig, generate_graph, infer_embeddings, pretrain
from riskprop.synthetic import community_assignment

gen = GenConfig(num_nodes=100, rng_seed=1)
g = generate_graph(gen)
cfg = TrainConfig(epochs=120, d_emb=16, hidden_heads=2, hidden_head_dim=8, rng_seed=0)

params, history = pretrain(g, cfg)

# zero-norm rows: masked rows whose input or reconstruction is all zeros, so
# the loss gives them the maximum penalty; they appear while the tokens are
# still near their zero start
print("epoch   total    full-graph   subgraph-mean   zero-norm rows")
for st in history[::20]:
    print(
        f"{st.epoch:5d}   {st.loss_total:.4f}   {st.loss_full:.4f}       {st.loss_sub_mean:.4f}"
        f"          {st.zero_norm_rows:5d}"
    )
print(f"{history[-1].epoch:5d}   {history[-1].loss_total:.4f}   (final)")
total = sum(st.zero_norm_rows for st in history)
last = max((st.epoch for st in history if st.zero_norm_rows), default=0)
print(f"zero-norm rows over all epochs: {total}, the last in epoch {last}")

ratio = history[-1].loss_total / history[0].loss_total
print(f"\nfinal/epoch-1 loss ratio: {ratio:.3f}")

emb = infer_embeddings(g, params)
print(f"embeddings: {emb.shape}")

# do embeddings pick up the planted communities?
comm = community_assignment(gen)
normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
cos = normed @ normed.T
same = comm[:, None] == comm[None, :]
off = ~np.eye(len(emb), dtype=bool)
print(f"mean cosine, same community:      {cos[same & off].mean():+.3f}")
print(f"mean cosine, different community: {cos[~same].mean():+.3f}")
