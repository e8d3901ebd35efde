"""Probe each encoder stage for directional information (not shipped)."""
import numpy as np

from minivla import encoders as enc
from minivla import policy as pol
from minivla import sim, depth as dp
from minivla.config import ModelConfig

data = sim.generate_dataset(150, 100, ["A", "B", "C"], families=["lift"])
frames = [f for t in data for o, _ in t.steps for f in (o.depth_static, o.depth_gripper)]
stats = dp.compute_stats(frames)
model = pol.init_model(ModelConfig(seed=0), stats)
vit = model.vit
P, NB = model.cfg.patch, model.cfg.vit_blocks

def tokens_at_stage(img, camera, n_blocks):
    pos = vit["pos_embed"]
    n = pos.shape[0] // 2
    x = enc.patchify(img, P, vit["patch_proj"], pos[camera * n:(camera + 1) * n])
    for b in range(n_blocks):
        x = enc._np_block(x, vit, b)
    return x

stages = {f"blocks{k}": [] for k in range(NB + 1)}
Y = []
for traj in data:
    for obs, act in traj.steps:
        for k in stages:
            n_blocks = int(k[-1])
            t_i = tokens_at_stage(np.asarray(obs.rgb_static, dtype=np.float64), 0, n_blocks)
            t_g = tokens_at_stage(np.asarray(obs.rgb_gripper, dtype=np.float64), 1, n_blocks)
            stages[k].append(np.concatenate([t_i.reshape(-1), t_g.reshape(-1)]))
        Y.append(act.pose[:3])
Y = np.array(Y)

def ridge_r2(X, Y, lam=1e-4, ntest=300):
    X = np.array(X)
    n = len(X)
    idx = np.random.default_rng(0).permutation(n)
    tr, te = idx[:-ntest], idx[-ntest:]
    Xm = X[tr].mean(0); Ym = Y[tr].mean(0)
    A = X[tr] - Xm; B = Y[tr] - Ym
    scale = A.std() + 1e-9
    A = A / scale
    W = np.linalg.solve(A.T @ A + lam * len(tr) * np.eye(X.shape[1]), A.T @ B)
    pred = ((X[te] - Xm) / scale) @ W + Ym
    ss_res = ((Y[te] - pred) ** 2).sum(0)
    ss_tot = ((Y[te] - Y[te].mean(0)) ** 2).sum(0) + 1e-12
    return 1 - ss_res / ss_tot

for k, X in stages.items():
    print(k, "R2(dx,dy,dz):", np.round(ridge_r2(X, Y), 3), flush=True)

# Also: token magnitude growth through blocks
probe = np.asarray(data[0].steps[0][0].rgb_static, dtype=np.float64)
for k in range(NB + 1):
    t = tokens_at_stage(probe, 0, k)
    print(f"after {k} blocks: token std {t.std():.2f}, max |x| {np.abs(t).max():.1f}")
