"""Minimal-direction learnability test: one block, one color (not shipped)."""
import sys
import time

import numpy as np

from minivla import depth as dp
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import ModelConfig, TrainConfig

n_traj = int(sys.argv[1]) if len(sys.argv) > 1 else 200
epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 20
lr = float(sys.argv[3]) if len(sys.argv) > 3 else 2e-3
batch = int(sys.argv[4]) if len(sys.argv) > 4 else 4
K = int(sys.argv[5]) if len(sys.argv) > 5 else 8
lam = float(sys.argv[6]) if len(sys.argv) > 6 else 1.0


def minimal_env(seed):
    geom = np.random.default_rng(seed)
    cells = np.linspace(0.17, 0.83, 5)
    bx, by = geom.choice(cells), geom.choice(cells)
    gx, gy = geom.uniform(0.2, 0.8, size=2)
    objects = [sim.Obj("block", "red", np.array([bx, by]), sim.BLOCK_HEIGHT)]
    return sim.WorldState(np.array([gx, gy, sim.HOVER_Z]), True, objects, "A")


def make_data(n, seed0):
    out = []
    for i in range(n):
        state = minimal_env(seed0 + i)
        task = sim.make_task(state, "lift", state.objects[0])
        _, steps = sim.run_expert_episode(state, task)
        out.append(sim.Trajectory(task.instruction, "lift", "A", seed0 + i,
                                  [(sim.render_observation(s), a) for s, a in steps]))
    return out


data = make_data(n_traj, 1000)
print("traj:", len(data), "steps:", sum(len(t.steps) for t in data), flush=True)
stats = dp.compute_stats([f for t in data for o, _ in t.steps
                          for f in (o.depth_static, o.depth_gripper)])
model = pol.init_model(ModelConfig(seed=0, resampler_k=K), stats)

def cb(epoch, st):
    print(f"  ep {epoch}: loss {st.loss:.4f} mse {st.mse:.4f} bce {st.bce:.4f} ({st.seconds:.0f}s)",
          flush=True)

tr.train_run(data, model, TrainConfig(epochs=epochs, learning_rate=lr, seed=0,
                                      batch_size=batch, lambda_gripper=lam), on_epoch=cb)

# eval: success on held-out minimal scenes
agent = pol.PolicyAgent(model)
wins = 0
for i in range(40):
    state = minimal_env(9000 + i)
    task = sim.make_task(state, "lift", state.objects[0])
    agent.reset()
    ok = False
    for _ in range(64):
        obs = sim.render_observation(state)
        a = agent.act(obs, task.instruction)
        state = sim.step_env(state, a)
        if sim.success(state, task):
            ok = True
            break
    wins += ok
print("minimal-scene lift success:", wins / 40, flush=True)
