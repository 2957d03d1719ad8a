"""The per-step rollout gradient, kept as the reference for the one-sweep
rollout of qoi.values_and_deltas.

Each of the T steps runs its own mlp forward and its own per-example
backward (models.mlp_vjp on one step), and the T per-example gradients are
added into the result one at a time, last step first; the input cotangent
of a step plus the injection at its input seeds the step before it. The
values and the horizon-1 deltas have the bytes of the one sweep; at longer
horizons the one sweep sums the steps in another order.
"""
import numpy as np

from deltavar.models import _mlp_forward_cache, mlp_vjp
from deltavar.qoi import _rollout, input_rows


def rollout_values_and_deltas(u, zs):
    """Values (n,) and per-example deltas (n, d) of a rollout quantity."""
    model, z_batch = u.model, input_rows(u.model, zs)
    caches = []

    def forward(x):
        out, h_ins, layers = _mlp_forward_cache(model, x)
        caches.append((h_ins, layers))
        return out

    values, inject = _rollout(u, z_batch, forward, with_grad=True)
    g = inject[-1]
    deltas = np.zeros((z_batch.shape[0], model.params.dim))
    for t in range(len(caches), 0, -1):
        h_ins, layers = caches[t - 1]
        gp, gin = mlp_vjp(model, h_ins, layers, g, per_example=True)
        deltas += gp
        g = gin + inject[t - 1]
    return values, deltas
