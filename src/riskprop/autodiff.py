"""Numeric fault checks for stage 1's hand-written forward passes.

Stage 1 has no generic autodiff. Each attention head (gat.py) and each
masked reconstruction term (hgmae.py) computes its forward pass and its
gradient by hand. The generic reverse-mode tape that those gradients are
checked against, bit for bit, is a test oracle (tests/tape.py).

Every forward stage of a term (the mask, each attention head, the ELU, the
re-mask and the SCE loss) passes its output through NumericFault.check,
which raises naming the stage; pretrain adds the epoch.
"""

import numpy as np


class NumericFault(ArithmeticError):
    """A forward stage produced a non-finite value."""

    @classmethod
    def check(cls, values, stage: str):
        """values, unless a NaN or Inf is among them; then raise naming stage."""
        # sum-based check: any NaN/Inf propagates to the total (values are O(1),
        # nowhere near the overflow regime)
        if not np.isfinite(np.sum(values)):
            raise cls(f"non-finite output from {stage}")
        return values
