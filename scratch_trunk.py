"""Surgical trunk test: supervised dxy regression stage by stage (not shipped)."""
import sys

import numpy as np

from minivla import decoder as dec
from minivla import depth as dp
from minivla import encoders as enc
from minivla import numerics as nm
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import ModelConfig, TrainConfig
from minivla.numerics import ParamSet, Tensor

stage = sys.argv[1] if len(sys.argv) > 1 else "pool_mlp"
epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 60
lr = float(sys.argv[3]) if len(sys.argv) > 3 else 2e-3


def minimal_env(seed):
    geom = np.random.default_rng(seed)
    cells = np.linspace(0.17, 0.83, 5)
    objects = [sim.Obj("block", "red", np.array([geom.choice(cells), geom.choice(cells)]),
                       sim.BLOCK_HEIGHT)]
    return sim.WorldState(np.array([*geom.uniform(0.2, 0.8, size=2), sim.HOVER_Z]),
                          True, objects, sim.PALETTES["A"].table_color, sim.COLORS)


samples = []
for i in range(260):
    st = minimal_env(2000 + i)
    task = sim.make_task(st, "lift", st.objects[0])
    for _ in range(64):
        obs = sim.render_observation(st)
        act = sim.expert_action(st, task)
        if abs(act.pose[0]) > 1e-9 or abs(act.pose[1]) > 1e-9:  # transit steps only
            samples.append((obs, act.pose[:2].copy()))
        st = sim.step_env(st, act)
        if sim.success(st, task):
            break

print("transit samples:", len(samples), flush=True)
stats = dp.compute_stats([o.depth_static for o, _ in samples[:200]])
model = pol.init_model(ModelConfig(seed=0), stats)
encoded = [pol.encode_observation(model, o) for o, _ in samples]
targets = np.array([t for _, t in samples])
n_train = int(0.85 * len(samples))

params = ParamSet()
rng = np.random.default_rng(3)
d = 64
instr = model.instruction("lift the red block")

if stage == "pool_mlp":
    # mean over raw tokens -> mlp
    w1 = params.add("w1", rng.normal(0, d ** -0.5, (2 * d, 128)), True)
    b1 = params.add("b1", np.zeros(128), True)
    w2 = params.add("w2", rng.normal(0, 128 ** -0.5 * 0.1, (128, 2)), True)
    b2 = params.add("b2", np.zeros(2), True)

    feats = [np.concatenate([e[0].mean(0), np.max(e[0], axis=0)]).reshape(1, -1)
             for e in encoded]

    def forward(i):
        return nm.mlp2(Tensor(feats[i]), w1, b1, w2, b2)

elif stage in ("resampler", "trunk"):
    for key in ("latents", "wk", "wv"):
        t = model.params[f"resampler.shared.{key}"]
        params.add(f"rs.{key}", t.data.copy(), True)
    in_dim = model.cfg.resampler_k * 2 * d if stage == "resampler" else d
    w1 = params.add("w1", rng.normal(0, in_dim ** -0.5, (in_dim, 128)), True)
    b1 = params.add("b1", np.zeros(128), True)
    w2 = params.add("w2", rng.normal(0, 128 ** -0.5 * 0.1, (128, 2)), True)
    b2 = params.add("b2", np.zeros(2), True)
    if stage == "trunk":
        layers = model.decoder
        for l, layer in enumerate(layers):
            for key, t in layer.items():
                if key.startswith("cross."):
                    params._entries[f"dec.{l}.{key}"] = t

    def forward(i):
        # One step with a leading time axis, so the pooled tokens are (1, d).
        er, ed = (e[None] for e in encoded[i])
        xv = enc.resample(er, params["rs.latents"], params["rs.wk"], params["rs.wv"])
        xd = enc.resample(ed, params["rs.latents"], params["rs.wk"], params["rs.wv"])
        fused = nm.concat_rows([xv, xd])
        if stage == "resampler":
            raise SystemExit("use trunk instead")
        x = dec.decode(Tensor(instr), fused, layers)
        pooled = nm.max_over_rows(x)
        return nm.mlp2(pooled, w1, b1, w2, b2)

opt = tr.Adam(TrainConfig(learning_rate=lr), params); opt.CLIP_NORM = 1e9
order_rng = np.random.default_rng(0)
for ep in range(epochs):
    order = order_rng.permutation(n_train)
    total = 0.0
    for start in range(0, n_train, 8):
        batch = order[start:start + 8]
        params.zero_grads()
        losses = []
        for i in batch:
            pred = forward(i)
            err = nm.sub(pred, Tensor(targets[i].reshape(1, 2)))
            losses.append(nm.mul(nm.sum_all(nm.mul(err, err)), Tensor(0.5)))
        loss = losses[0]
        for l in losses[1:]:
            loss = nm.add(loss, l)
        loss = nm.mul(Tensor(1.0 / len(losses)), loss)
        nm.backward(loss)
        opt.step()
        total += loss.item() * len(losses)
    if ep % 10 == 0 or ep == epochs - 1:
        with nm.no_grad():
            test_mse = float(np.mean([
                ((forward(i).data - targets[i]) ** 2).mean()
                for i in range(n_train, len(samples))
            ]))
        print(f"ep {ep}: train {total / n_train:.5f} test {test_mse:.5f} "
              f"(blind floor ~{(targets[n_train:] ** 2).mean():.5f})", flush=True)
