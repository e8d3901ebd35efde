"""Scratch calibration for the end-to-end learning criterion (not shipped)."""
import sys
import time

import numpy as np

from minivla import depth as dp
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import ModelConfig, TrainConfig

n_traj = int(sys.argv[1]) if len(sys.argv) > 1 else 200
epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
lr = float(sys.argv[3]) if len(sys.argv) > 3 else 2e-3
n_chains = int(sys.argv[4]) if len(sys.argv) > 4 else 20
batch = int(sys.argv[5]) if len(sys.argv) > 5 else 1

t0 = time.perf_counter()
data = sim.generate_dataset(n_traj, 100, ["A", "B", "C"], families=["lift"])
steps = sum(len(t.steps) for t in data)
print(f"gen: {time.perf_counter()-t0:.1f}s, {n_traj} traj, {steps} steps "
      f"(avg {steps/n_traj:.1f})", flush=True)

t0 = time.perf_counter()
frames = [f for traj in data for obs, _ in traj.steps
          for f in (obs.depth_static, obs.depth_gripper)]
stats = dp.compute_stats(frames)
print(f"stats: {stats} ({time.perf_counter()-t0:.1f}s)", flush=True)

model = pol.init_model(ModelConfig(seed=0), stats)

t0 = time.perf_counter()
def cb(epoch, st):
    print(f"  epoch {epoch}: loss {st.loss:.4f} mse {st.mse:.4f} bce {st.bce:.4f} "
          f"({st.seconds:.1f}s)", flush=True)
report = tr.train_run(data, model,
                      TrainConfig(epochs=epochs, learning_rate=lr, seed=0,
                                  batch_size=batch), on_epoch=cb)
print(f"train: {time.perf_counter()-t0:.1f}s", flush=True)

alphas = [float(np.tanh(model.params[f"decoder.{l}.cross.alpha"].data))
          for l in range(model.cfg.decoder_layers)]
print(f"gates tanh(alpha): {alphas}", flush=True)

for palette in ("A", "D"):
    t0 = time.perf_counter()
    agent = pol.PolicyAgent(model)
    wins = 0
    task1 = []
    near = 0
    for i in range(n_chains):
        chain = sim.sample_chain(5000 + i, palette, families=["lift"])
        (res,) = sim.lockstep([sim.chain_steps(agent, chain)])
        task1.append(res.successes[0])
        wins += sum(res.successes)
        # proximity probe: replay task 1 and track best distance to target
        state = sim.make_env(chain.seed, chain.palette)
        agent.reset()
        task = chain.tasks[0]
        target0 = sim.resolve_target(state, task)
        best = 1e9
        for _ in range(64):
            obs = sim.render_observation(state)
            a = agent.act(obs, task.instruction)
            state = sim.step_env(state, a)
            t_obj = sim.resolve_target(state, task)
            best = min(best, float(np.linalg.norm(state.gripper_pos[:2] - t_obj.pos)))
            if sim.success(state, task):
                break
        near += int(best < 0.1)
    print(f"eval[{palette}]: {time.perf_counter()-t0:.1f}s  task1={np.mean(task1):.2f} "
          f"avg-completed={wins/n_chains:.2f}  reach<0.1={near/n_chains:.2f}", flush=True)
