"""Diagnostic: ridge-probe expert deltas from frozen encoder tokens (not shipped)."""
import numpy as np

from minivla import policy as pol
from minivla import sim, depth as dp
from minivla.config import ModelConfig

data = sim.generate_dataset(150, 100, ["A", "B", "C"], families=["lift"])
frames = [f for t in data for o, _ in t.steps for f in (o.depth_static, o.depth_gripper)]
stats = dp.compute_stats(frames)
model = pol.init_model(ModelConfig(seed=0), stats)

X_tok, X_pix, Y, COLORS = [], [], [], []
for traj in data:
    color = traj.instruction.split()[-2]  # "... the <color> block"
    for obs, act in traj.steps:
        enc_rgb, enc_dep = pol.encode_observation(model, obs)
        X_tok.append(np.concatenate([enc_rgb.reshape(-1), enc_dep.reshape(-1)]))
        X_pix.append(np.concatenate([obs.rgb_static.reshape(-1), obs.rgb_gripper.reshape(-1)]))
        Y.append(act.pose[:3])
        COLORS.append(color)

X_tok = np.array(X_tok); X_pix = np.array(X_pix); Y = np.array(Y)
COLORS = np.array(COLORS)
print("steps:", len(Y), "colors:", dict(zip(*np.unique(COLORS, return_counts=True))))

def ridge_r2(X, Y, lam=1e-3, ntest=400):
    n = len(X)
    idx = np.random.default_rng(0).permutation(n)
    tr, te = idx[:-ntest], idx[-ntest:]
    Xm = X[tr].mean(0); Ym = Y[tr].mean(0)
    A = X[tr] - Xm; B = Y[tr] - Ym
    W = np.linalg.solve(A.T @ A + lam * len(tr) * np.eye(X.shape[1]), A.T @ B)
    pred = (X[te] - Xm) @ W + Ym
    ss_res = ((Y[te] - pred) ** 2).sum(0)
    ss_tot = ((Y[te] - Y[te].mean(0)) ** 2).sum(0) + 1e-12
    return 1 - ss_res / ss_tot

# all colors mixed (needs instruction interaction -> expect poor xy)
print("tokens  all-colors R2(dx,dy,dz):", np.round(ridge_r2(X_tok, Y), 3))
print("pixels  all-colors R2(dx,dy,dz):", np.round(ridge_r2(X_pix, Y), 3))

# a single color only (no instruction needed)
for c in ("red", "green"):
    m = COLORS == c
    if m.sum() > 600:
        print(f"tokens  {c}-only  R2:", np.round(ridge_r2(X_tok[m], Y[m], ntest=150), 3),
              f"(n={m.sum()})")
        print(f"pixels  {c}-only  R2:", np.round(ridge_r2(X_pix[m], Y[m], ntest=150), 3))
