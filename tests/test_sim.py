import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import Recording, action_bytes, run_chain, synthetic_stats, tiny_config

from minivla import policy as pol
from minivla import sim
from minivla.errors import ContractError, TaskError, ValidationError
from minivla.sim import (
    Action,
    ChainSpec,
    ExpertAgent,
    Obj,
    RandomAgent,
    TaskSpec,
    WorldState,
)


def palette_a_scene(gripper, objects):
    """A hand-built scene in palette A's base table colour and the base
    object colours, COLORS."""
    return WorldState(np.array(gripper, dtype=float), True, objects,
                      sim.PALETTES["A"].table_color, sim.COLORS)


def simple_scene(gripper=(0.26, 0.5, 0.22), block=(0.5, 0.5), height=0.10):
    return palette_a_scene(gripper, [Obj("block", "red", np.array(block, dtype=float), height)])


class TestMakeEnv:
    def test_same_seed_same_state(self):
        a = sim.make_env(7, "A")
        b = sim.make_env(7, "A")
        assert np.array_equal(a.gripper_pos, b.gripper_pos)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.kind == ob.kind and oa.color == ob.color
            assert np.array_equal(oa.pos, ob.pos)
            assert oa.height == ob.height

    def test_palette_contract_same_geometry_different_colors(self):
        a = sim.make_env(3, "A")
        d = sim.make_env(3, "D")
        for oa, od in zip(a.objects, d.objects):
            assert oa.kind == od.kind
            assert np.array_equal(oa.pos, od.pos)
        assert sim.PALETTES["A"].table_color != sim.PALETTES["D"].table_color
        colors_a = [o.color for o in a.objects if o.kind == "block"]
        colors_d = [o.color for o in d.objects if o.kind == "block"]
        assert colors_a != colors_d

    def test_invariants_hold_over_many_seeds(self):
        for seed in range(1000):
            state = sim.make_env(seed, "ABCD"[seed % 4])
            state.validate()

    def test_standard_scene_inventory(self):
        s = sim.make_env(0, "B")
        kinds = sorted(o.kind for o in s.objects)
        assert kinds == ["bin", "block"] + ["block"] * 4 + ["button", "button", "slider"]
        block_colors = [o.color for o in s.objects if o.kind == "block"]
        assert len(set(block_colors)) == 5

    def test_tall_short_scene_has_same_color_pair(self):
        s = sim.make_env(11, "C", variant="tall_short")
        blocks = [o for o in s.objects if o.kind == "block"]
        assert len(blocks) == 5
        by_color: dict[str, list] = {}
        for b in blocks:
            by_color.setdefault(b.color, []).append(b)
        pair = [v for v in by_color.values() if len(v) == 2]
        assert len(pair) == 1
        heights = sorted(b.height for b in pair[0])
        assert heights == [sim.SHORT_HEIGHT, sim.TALL_HEIGHT]

    def test_unknown_palette_rejected(self):
        with pytest.raises(ContractError):
            sim.make_env(0, "Z")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError, match="unknown scene variant 'tall'"):
            sim.make_env(0, "A", variant="tall")

    @pytest.mark.parametrize("breach, message", [
        ("two-held", "2 objects held at once"),
        ("object-off-table", "object out of bounds"),
        ("gripper-too-high", "gripper out of bounds"),
    ])
    def test_validate_refuses_impossible_states(self, breach, message):
        state = sim.make_env(0, "A")
        if breach == "two-held":
            state.objects[0].held = state.objects[1].held = True
        elif breach == "object-off-table":
            state.objects[0].pos = np.array([1.2, 0.5])
        else:
            state.gripper_pos[2] = sim.Z_MAX + 0.01
        with pytest.raises(ContractError, match=message):
            state.validate()


class TestStepEnv:
    def test_zero_action_is_identity(self):
        s = sim.make_env(5, "A")
        s2 = sim.step_env(s, Action.zero(closed=False))
        assert np.array_equal(s.gripper_pos, s2.gripper_pos)
        for a, b in zip(s.objects, s2.objects):
            assert np.array_equal(a.pos, b.pos) and a.held == b.held

    def test_close_at_grasp_point_sets_held(self):
        s = simple_scene(gripper=(0.5, 0.5, 0.08))
        s2 = sim.step_env(s, Action(np.zeros(6), gripper_closed=True))
        assert s2.objects[0].held
        assert not s2.gripper_open

    def test_close_too_high_does_not_grab(self):
        s = simple_scene(gripper=(0.5, 0.5, 0.2))
        s2 = sim.step_env(s, Action(np.zeros(6), gripper_closed=True))
        assert not s2.objects[0].held

    def test_close_at_wrong_height_window_for_sizes(self):
        # 0.08 is inside the normal-height window but outside both the
        # tall and the short grasp windows.
        for h, ok in ((0.10, True), (0.15, False), (0.05, False)):
            s = simple_scene(gripper=(0.5, 0.5, 0.08), height=h)
            s2 = sim.step_env(s, Action(np.zeros(6), gripper_closed=True))
            assert s2.objects[0].held is ok

    def test_held_object_follows_and_releases(self):
        s = simple_scene(gripper=(0.5, 0.5, 0.08))
        s = sim.step_env(s, Action(np.zeros(6), True))
        move = np.zeros(6)
        move[:2] = (0.05, -0.05)
        s = sim.step_env(s, Action(move, True))
        np.testing.assert_allclose(s.objects[0].pos, s.gripper_pos[:2])
        s = sim.step_env(s, Action(np.zeros(6), False))
        assert not s.objects[0].held
        assert s.gripper_open

    def test_out_of_bounds_clamps(self):
        s = simple_scene(gripper=(0.98, 0.5, 0.3))
        big = np.zeros(6)
        big[0] = 0.5  # beyond the per-step clip too
        s2 = sim.step_env(s, Action(big, False))
        assert s2.gripper_pos[0] == 1.0

    @pytest.mark.parametrize("dim, value", [(0, np.nan), (2, np.inf), (4, -np.inf)])
    def test_non_finite_pose_rejected(self, dim, value):
        pose = np.zeros(6)
        pose[dim] = value
        with pytest.raises(ContractError, match="finite"):
            sim.step_env(sim.make_env(0, "A"), Action(pose, False))

    def test_button_press(self):
        s = simple_scene()
        s.objects.append(Obj("button", "blue", np.array([0.3, 0.3]), sim.BUTTON_HEIGHT))
        s.gripper_pos = np.array([0.3, 0.3, 0.12])
        down = np.zeros(6)
        down[2] = -0.08
        s2 = sim.step_env(s, Action(down, False))
        assert s2.objects[1].pressed
        assert s2.objects[1].height == sim.BUTTON_PRESSED_HEIGHT

    def test_hand_simulated_pick_trace(self):
        # Scene: block at (0.5, 0.5) h=0.10 (grasp z 0.08), gripper starts
        # at (0.26, 0.5, 0.22) open. Hand-applied rules, step by step:
        #   3 moves of +0.08 in x  -> gripper (0.50, 0.5, 0.22), no contact
        #      (z 0.22 > 0.10 + 0.04 pad)
        #   -0.08 in z             -> z 0.14
        #   -0.06 in z             -> z 0.08
        #   close                  -> grab fires (dist 0 <= 0.08,
        #                             |0.08-0.08| <= 0.04)
        #   +0.08 in z twice       -> z 0.24, block follows in xy
        s = simple_scene()
        trace = [
            ((+0.08, 0, 0, False), (0.34, 0.5, 0.22), False),
            ((+0.08, 0, 0, False), (0.42, 0.5, 0.22), False),
            ((+0.08, 0, 0, False), (0.50, 0.5, 0.22), False),
            ((0, 0, -0.08, False), (0.50, 0.5, 0.14), False),
            ((0, 0, -0.06, False), (0.50, 0.5, 0.08), False),
            ((0, 0, 0, True), (0.50, 0.5, 0.08), True),
            ((0, 0, +0.08, True), (0.50, 0.5, 0.16), True),
            ((0, 0, +0.08, True), (0.50, 0.5, 0.24), True),
        ]
        for (dx, dy, dz, closed), gripper, held in trace:
            pose = np.zeros(6)
            pose[:3] = (dx, dy, dz)
            s = sim.step_env(s, Action(pose, closed))
            np.testing.assert_allclose(s.gripper_pos, gripper, atol=1e-12)
            assert s.objects[0].held is held
        assert s.gripper_pos[2] >= sim.LIFT_SUCCESS_Z

    def test_low_gripper_drags_block(self):
        s = simple_scene(gripper=(0.44, 0.5, 0.05))
        push = np.zeros(6)
        push[0] = 0.06
        s2 = sim.step_env(s, Action(push, False))
        # New gripper x = 0.50, block still at 0.50: contact, block moves.
        np.testing.assert_allclose(s2.objects[0].pos, [0.56, 0.5])

    def test_high_gripper_does_not_drag(self):
        s = simple_scene(gripper=(0.44, 0.5, 0.22))
        push = np.zeros(6)
        push[0] = 0.06
        s2 = sim.step_env(s, Action(push, False))
        np.testing.assert_allclose(s2.objects[0].pos, [0.5, 0.5])


def snapshot(state: WorldState):
    """Everything a WorldState holds, in a form == compares exactly."""
    return (state.gripper_pos.tobytes(), state.gripper_open,
            state.table_color, state.scene_colors,
            [(o.kind, o.color, o.pos.tobytes(), o.height, o.held, o.pressed, o.rail)
             for o in state.objects])


actions = st.builds(Action, hnp.arrays(np.float64, 6, elements=st.floats(-1.0, 1.0)),
                    st.booleans())


class TestStepEnvProperties:
    """Invariants of the environment under random finite action streams."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), palette=st.sampled_from(sorted(sim.PALETTES)),
           variant=st.sampled_from(["standard", "tall_short"]),
           stream=st.lists(actions, min_size=1, max_size=24))
    def test_invariants_hold_after_every_step(self, seed, palette, variant, stream):
        state = sim.make_env(seed, palette, variant)
        depth_lo, depth_hi = np.float32(sim.Z_CAM - sim.Z_MAX), np.float32(sim.Z_CAM)
        for action in stream:
            before = snapshot(state)
            pressed = {i for i, o in enumerate(state.objects) if o.pressed}
            after = sim.step_env(state, action)
            assert snapshot(state) == before  # the input is not mutated
            assert snapshot(sim.step_env(state, action)) == snapshot(after)
            after.validate()  # everything in bounds, at most one object held
            assert pressed <= {i for i, o in enumerate(after.objects) if o.pressed}
            (obs,) = sim.render_observation([after])
            sim.check_observation(obs, "rendered")
            for rgb in (obs.rgb_static, obs.rgb_gripper):
                assert rgb.min() >= 0.0 and rgb.max() <= 1.0
            for depth in (obs.depth_static, obs.depth_gripper):
                assert depth.min() >= depth_lo and depth.max() <= depth_hi
            state = after


class TestRender:
    def test_empty_table_uniform(self):
        s = palette_a_scene([2.0, 2.0, 0.2], [])  # marker off the static view
        (obs,) = sim.render_observation([s])
        table = np.array(sim.PALETTES["A"].table_color, dtype=np.float32)
        assert np.allclose(obs.rgb_static, table)
        assert np.allclose(obs.depth_static, sim.Z_CAM)
        # The wrist view is centered on the marker; its corners show the table.
        assert np.allclose(obs.rgb_gripper[0, 0], table)
        assert np.allclose(obs.depth_gripper[-1, -1], sim.Z_CAM)

    def test_block_reduces_depth_by_height(self):
        s = simple_scene(gripper=(0.9, 0.9, 0.3), block=(0.5, 0.5), height=0.1)
        (obs,) = sim.render_observation([s])
        center = obs.depth_static[16, 16]
        corner = obs.depth_static[0, 0]
        np.testing.assert_allclose(corner, sim.Z_CAM, atol=1e-6)
        np.testing.assert_allclose(center, sim.Z_CAM - 0.1, atol=1e-6)

    def test_same_color_different_height_blocks_identical_rgb(self):
        # The depth-critical construction: same color, heights 0.05 vs 0.15,
        # RGB patches around both centers must match pixel for pixel.
        objects = [
            Obj("block", "red", np.array([0.33, 0.5]), sim.TALL_HEIGHT),
            Obj("block", "red", np.array([0.67, 0.5]), sim.SHORT_HEIGHT),
        ]
        s = palette_a_scene([0.5, 0.9, 0.3], objects)
        (obs,) = sim.render_observation([s])

        def patch(img, x, y, half=3):
            j = int(x * 32)
            i = int(y * 32)
            return img[i - half:i + half + 1, j - half:j + half + 1]

        rgb_tall = patch(obs.rgb_static, 0.33, 0.5)
        rgb_short = patch(obs.rgb_static, 0.67, 0.5)
        assert np.array_equal(rgb_tall, rgb_short)
        d_tall = patch(obs.depth_static, 0.33, 0.5)
        d_short = patch(obs.depth_static, 0.67, 0.5)
        assert not np.array_equal(d_tall, d_short)
        assert d_tall.min() < d_short.min()

    def test_observation_invariants(self):
        s = sim.make_env(1, "C")
        (obs,) = sim.render_observation([s])
        assert obs.rgb_static.shape == (32, 32, 3)
        assert obs.rgb_gripper.shape == (32, 32, 3)
        assert obs.depth_static.shape == (32, 32)
        assert obs.depth_gripper.shape == (32, 32)
        assert (obs.depth_static > 0).all() and (obs.depth_gripper > 0).all()
        for img in (obs.rgb_static, obs.rgb_gripper):
            assert (img >= 0).all() and (img <= 1).all()

    def test_gripper_marker_color_tracks_state(self):
        s = simple_scene(gripper=(0.5, 0.5, 0.2))
        s.objects = []
        (obs_open,) = sim.render_observation([s])
        s.gripper_open = False
        (obs_closed,) = sim.render_observation([s])
        assert np.allclose(obs_open.rgb_static[16, 16], sim.GRIPPER_OPEN_COLOR)
        assert np.allclose(obs_closed.rgb_static[16, 16], sim.GRIPPER_CLOSED_COLOR)

    @staticmethod
    def _paint_on_meshgrid(state, cx, cy, window, res):
        """One camera's (rgb, depth) painted on a full np.meshgrid, as the
        painter was before it drew both cameras at once; the reference."""
        tints = state.scene_colors
        xs = cx - window / 2 + (np.arange(res) + 0.5) * window / res
        ys = cy - window / 2 + (np.arange(res) + 0.5) * window / res
        gx, gy = np.meshgrid(xs, ys)
        color = np.empty((res, res, 3))
        color[:] = state.table_color
        height = np.zeros((res, res))

        def stamp(px, py, half_x, half_y, h, rgb):
            mask = (np.abs(gx - px) <= half_x) & (np.abs(gy - py) <= half_y) & (h > height)
            color[mask] = rgb
            height[mask] = h

        for obj in state.objects:
            if obj.kind == "slider":
                rx0, rx1 = obj.rail
                stamp((rx0 + rx1) / 2, obj.pos[1], (rx1 - rx0) / 2 + sim.SLIDER_HALF, 0.015,
                      0.005, sim.RAIL_COLOR)
        for obj in state.objects:
            h = sim._effective_height(obj, state)
            if obj.kind == "block":
                stamp(obj.pos[0], obj.pos[1], sim.BLOCK_HALF, sim.BLOCK_HALF, h, tints[obj.color])
            elif obj.kind == "button":
                rgb = 0.45 * np.array(tints[obj.color]) + 0.55
                if obj.pressed:
                    rgb = rgb * 0.55
                stamp(obj.pos[0], obj.pos[1], sim.BUTTON_HALF, sim.BUTTON_HALF, h, tuple(rgb))
            elif obj.kind == "slider":
                rgb = 0.55 * np.array(tints[obj.color])
                stamp(obj.pos[0], obj.pos[1], sim.SLIDER_HALF, sim.SLIDER_HALF, h, tuple(rgb))
            elif obj.kind == "bin":
                stamp(obj.pos[0], obj.pos[1], sim.BIN_HALF, sim.BIN_HALF, h, sim.BIN_COLOR)
        g = state.gripper_pos
        marker = (np.abs(gx - g[0]) <= sim.GRIPPER_HALF) & (np.abs(gy - g[1]) <= sim.GRIPPER_HALF)
        color[marker] = sim.GRIPPER_OPEN_COLOR if state.gripper_open else sim.GRIPPER_CLOSED_COLOR
        height[marker] = g[2]
        return color.astype(np.float32), (sim.Z_CAM - height).astype(np.float32)

    @classmethod
    def assert_matches_meshgrid(cls, states):
        """All four planes of every Observation of one render_observation
        call over states are byte-identical to the reference painter run
        on each state and camera window alone."""
        observations = sim.render_observation(states)
        assert len(observations) == len(states)
        for state, obs in zip(states, observations):
            g = state.gripper_pos
            windows = {"static": (0.5, 0.5, 1.0),
                       "gripper": (float(g[0]), float(g[1]), sim.GRIPPER_CAM_WINDOW)}
            for camera, window in windows.items():
                expect = cls._paint_on_meshgrid(state, *window, sim.IMAGE_HW)
                got = (getattr(obs, f"rgb_{camera}"), getattr(obs, f"depth_{camera}"))
                for a, b in zip(got, expect):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), camera

    @pytest.mark.parametrize("seed,palette,variant", [
        pytest.param(0, "A", "standard", id="0-A"),
        pytest.param(3, "B", "standard", id="3-B"),
        pytest.param(11, "C", "standard", id="11-C"),
        pytest.param(42, "D", "standard", id="42-D"),
        pytest.param(5, "A", "tall_short", id="5-A-tall_short"),
        pytest.param(8, "D", "tall_short", id="8-D-tall_short"),
    ])
    def test_broadcast_grid_matches_meshgrid(self, seed, palette, variant):
        # All four planes of a scene, before and after random moves of the
        # gripper, must be byte-identical to the meshgrid painter.
        state = sim.make_env(seed, palette, variant)
        agent = RandomAgent(seed)
        for _ in range(3):
            self.assert_matches_meshgrid([state])
            for _ in range(4):
                state = sim.step_env(state, agent.act(None, ""))
        # So must a held block raised to exactly the height of a block of
        # another color that it overlaps: the stamps meet at equal heights,
        # where the strict h > height rule keeps whichever is stamped first.
        blocks = [i for i, obj in enumerate(state.objects) if obj.kind == "block"]
        first = blocks[0]
        other = next(i for i in blocks
                     if state.objects[i].color != state.objects[first].color)
        for held_i, under_i in ((first, other), (other, first)):
            scene = state.copy()
            held, under = scene.objects[held_i], scene.objects[under_i]
            held.held = True
            held.pos = under.pos + 0.5 * sim.BLOCK_HALF
            scene.gripper_pos = np.array([*held.pos, under.height])
            assert sim._effective_height(held, scene) == under.height
            self.assert_matches_meshgrid([scene])

    def test_render_deterministic(self):
        s = sim.make_env(9, "B")
        a, b = sim.render_observation([s, s])
        (c,) = sim.render_observation([s])
        assert np.array_equal(a.rgb_static, b.rgb_static)
        assert np.array_equal(a.depth_gripper, b.depth_gripper)
        assert np.array_equal(a.rgb_gripper, c.rgb_gripper)

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(sorted(sim.PALETTES)),
                                    st.sampled_from(sim.VARIANTS), st.lists(actions, max_size=12),
                                    st.sampled_from(["free", "tie", "floor"]),
                                    st.integers(0, 4)),
                          min_size=1, max_size=8))
    def test_a_batch_matches_the_meshgrid_painter(self, specs):
        # One call over states of mixed seeds, palettes and variants, with
        # held blocks that tie another block's height or rest at z = 0.
        self.assert_matches_meshgrid([drawn_state(*spec) for spec in specs])

    def test_rows_of_unequal_length_are_padded(self):
        # A block held at z = 0 shows nowhere, so its state paints one
        # entry fewer than the same scene left free, and its row is padded.
        free = sim.make_env(4, "C")
        floor = drawn_state(4, "C", "standard", [], "floor", 0)
        assert len(sim._paint_order(floor)) == len(sim._paint_order(free)) - 1
        self.assert_matches_meshgrid([floor, free, floor])

    def test_a_state_paints_at_most_the_entry_limit(self):
        rng = np.random.default_rng(0)

        def crowded(n_blocks):  # blocks of three heights, so many tie
            return palette_a_scene([0.5, 0.5, 0.2], [
                Obj("block", "red", rng.uniform(0.1, 0.9, 2), float(h))
                for h in rng.choice([0.05, 0.10, 0.15], n_blocks)])

        # The marker, 62 stamps and the table: the table takes the last bit.
        assert len(sim._paint_order(crowded(62))) == sim.MAX_PAINT_ENTRIES
        self.assert_matches_meshgrid([crowded(62), sim.make_env(0, "A")])
        with pytest.raises(ContractError, match="at most 64 entries, got 65"):
            sim.render_observation([sim.make_env(0, "A"), crowded(63)])


def drawn_state(seed, palette, variant, stream, pose, pick) -> WorldState:
    """make_env(seed, palette, variant) after the actions of stream; then,
    unless pose is "free", its block pick (mod the blocks) held, alone, at
    the exact height of the next block and overlapping it ("tie"), or at
    z = 0 ("floor")."""
    state = sim.make_env(seed, palette, variant)
    for action in stream:
        state = sim.step_env(state, action)
    if pose == "free":
        return state
    blocks = [o for o in state.objects if o.kind == "block"]
    held, under = blocks[pick % len(blocks)], blocks[(pick + 1) % len(blocks)]
    for obj in state.objects:
        obj.held = obj is held
    if pose == "tie":
        held.pos = under.pos + 0.5 * sim.BLOCK_HALF
        state.gripper_pos = np.array([*held.pos, under.height])
    else:
        state.gripper_pos = np.array([*held.pos, 0.0])
    return state


class TestExpert:
    def test_close_when_at_grasp_point(self):
        s = simple_scene(gripper=(0.5, 0.5, 0.08))
        task = sim.make_task(s, "lift", s.objects[0])
        a = sim.expert_action(s, task)
        assert a.gripper_closed
        np.testing.assert_allclose(a.pose, np.zeros(6))

    def test_expert_actions_respect_clip(self):
        for seed in range(20):
            state = sim.make_env(seed, "A")
            rng = np.random.default_rng(seed)
            task = sim.sample_task(state, rng)
            for _ in range(64):
                a = sim.expert_action(state, task)
                assert np.abs(a.pose).max() <= sim.STEP_CLIP + 1e-12
                state = sim.step_env(state, a)
                if sim.success(state, task):
                    break

    @pytest.mark.parametrize("family", sim.FAMILIES)
    def test_expert_completes_every_family_500_seeds(self, family):
        for seed in range(500):
            state = sim.make_env(seed, "ABCD"[seed % 4])
            rng = np.random.default_rng(seed)
            task = sim.sample_task(state, rng, families=[family])
            sim.run_expert_episode(state, task)  # raises on failure

    def test_expert_completes_tall_short(self):
        for seed in range(200):
            state = sim.make_env(seed, "D", variant="tall_short")
            rng = np.random.default_rng(seed)
            task = sim.sample_task(state, rng, families=["lift"])
            sim.run_expert_episode(state, task)

    def test_unresolvable_descriptor(self):
        s = simple_scene()
        task = TaskSpec("lift", "green", None, "lift the green block", 0.5)
        with pytest.raises(TaskError):
            sim.expert_action(s, task)

    def test_an_expert_out_of_steps_is_a_task_error(self, monkeypatch):
        monkeypatch.setattr(sim, "EXPERT_MAX_STEPS", 1)
        task = TaskSpec("lift", "red", None, "lift the red block", 0.5)
        with pytest.raises(TaskError, match="expert failed 'lift' on 'red' within 1 steps"):
            sim.run_expert_episode(simple_scene(), task)

    def test_expert_agent_needs_the_state_and_a_task(self):
        agent = ExpertAgent()
        with pytest.raises(ContractError, match="needs the world state and a task"):
            agent.act(None, "lift the red block", state=simple_scene())


class TestTasks:
    def test_place_without_a_bin_is_a_task_error(self):
        task = TaskSpec("place", "red", None, "put the red block in the bin", 0.5)
        with pytest.raises(TaskError, match="scene has no bin"):
            sim.success(simple_scene(), task)

    def test_a_scene_without_the_family_s_kind_is_a_task_error(self):
        with pytest.raises(TaskError, match="scene has no button for family 'press'"):
            sim.sample_task(simple_scene(), np.random.default_rng(0), families=["press"])

    def test_a_size_is_named_only_for_a_tall_or_short_block(self):
        # Two red blocks of the standard height: ambiguous, but neither has a size.
        state = simple_scene()
        state.objects.append(Obj("block", "red", np.array([0.7, 0.3]), sim.BLOCK_HEIGHT))
        task = sim.make_task(state, "lift", state.objects[1])
        assert task.size is None and task.instruction == "lift the red block"


class TestDataset:
    def test_fixed_seed_reproducible(self):
        a = sim.generate_dataset(2, 10, ["A"], families=["lift"])
        b = sim.generate_dataset(2, 10, ["A"], families=["lift"])
        assert a[0].instruction == b[0].instruction
        assert len(a[0].steps) == len(b[0].steps)
        for (oa, aa), (ob, ab) in zip(a[0].steps, b[0].steps):
            assert np.array_equal(oa.rgb_static, ob.rgb_static)
            assert np.array_equal(aa.pose, ab.pose)
            assert aa.gripper_closed == ab.gripper_closed

    def test_each_demo_is_painted_in_one_call(self, monkeypatch):
        calls = []
        render = sim.render_observation
        monkeypatch.setattr(sim, "render_observation",
                            lambda states: calls.append(len(states)) or render(states))
        data = sim.generate_dataset(3, 5, ["A", "B"])
        assert calls == [len(t.steps) for t in data] and min(calls) > 1

    @pytest.mark.parametrize("n, palettes, message", [
        (0, ["A"], "dataset size must be >= 1"), (2, [], "at least one palette")])
    def test_empty_requests_rejected(self, n, palettes, message):
        with pytest.raises(ContractError, match=message):
            sim.generate_dataset(n, 0, palettes)

    def test_palette_filter(self):
        data = sim.generate_dataset(6, 0, ["A", "B", "C"])
        assert {t.palette for t in data} == {"A", "B", "C"}
        assert not any(t.palette == "D" for t in data)

    def test_trajectories_end_in_success(self):
        data = sim.generate_dataset(8, 3, ["A", "B"], families=["lift", "press"])
        for traj in data:
            state = sim.make_env(traj.seed, traj.palette, traj.variant)
            rng = np.random.default_rng(np.random.SeedSequence(traj.seed, spawn_key=(sim._TASK_KEY,)))
            task = sim.sample_task(state, rng, families=["lift", "press"])
            for _, action in traj.steps:
                state = sim.step_env(state, action)
            assert sim.success(state, task)

    def test_enriched_instructions_in_vocabulary(self):
        data = sim.generate_dataset(12, 1, ["A"], enrich=True)
        vocab = set(sim.vocabulary_words())
        for traj in data:
            for word in traj.instruction.lower().split():
                assert word in vocab


class TestParaphrase:
    def test_seeded_rng_reproducible(self):
        task = TaskSpec("lift", "red", None, "lift the red block", 0.5)
        a = sim.paraphrase_instruction(task, np.random.default_rng(5))
        b = sim.paraphrase_instruction(task, np.random.default_rng(5))
        assert a == b

    def test_canonical_is_in_bank(self):
        state = sim.make_env(0, "A")
        kinds = {"lift": "block", "push": "block", "place": "block",
                 "press": "button", "slide": "slider"}
        for family in sim.FAMILIES:
            target = next(o for o in state.objects if o.kind == kinds[family])
            task = sim.make_task(state, family, target)
            qual = f"{task.size} {task.color}" if task.size else task.color
            bank = [t.format(t=qual) for t in sim.PARAPHRASE_BANK[family]]
            assert task.instruction in bank

    def test_bank_sizes(self):
        for family, bank in sim.PARAPHRASE_BANK.items():
            assert len(bank) >= 10

    def test_every_family_has_a_bank_of_templates(self):
        # paraphrase_instruction indexes the bank by family unchecked: every
        # task it gets has passed resolve_target or _family_list.
        assert set(sim.PARAPHRASE_BANK) == set(sim.FAMILIES)
        for family, bank in sim.PARAPHRASE_BANK.items():
            assert bank, family
            for template in bank:
                assert "{t}" in template, (family, template)


class TestChains:
    def test_chain_has_five_distinct_targets(self):
        chain = sim.sample_chain(4, "A")
        assert len(chain.tasks) == 5
        descriptors = [(t.family, t.color, t.size) for t in chain.tasks]
        assert len(set(descriptors)) == 5

    @pytest.mark.parametrize("sample", [
        lambda fams: sim.sample_chain(4, "A", families=fams),
        lambda fams: sim.sample_task(sim.make_env(4, "A"), np.random.default_rng(0), fams),
        lambda fams: sim.success(simple_scene(), TaskSpec(fams[1], "red", None, "", 0.5)),
        lambda fams: sim.expert_action(simple_scene(), TaskSpec(fams[1], "red", None, "", 0.5)),
    ], ids=["chain", "task", "success", "expert"])
    def test_unknown_family_is_a_task_error(self, sample):
        with pytest.raises(TaskError, match="unknown task family 'bogus'"):
            sample(["lift", "bogus"])

    def test_families_without_a_block_cannot_fill_a_chain(self):
        # Two buttons and a slider are three targets; a chain needs five.
        with pytest.raises(ValidationError, match="cannot build a 5-task chain"):
            sim.sample_chain(4, "A", families=["press", "slide"])
        # A tall_short chain is five lifts, so other families are refused
        # rather than ignored.
        for families in (["press"], ["lift", "press"]):
            with pytest.raises(ValidationError, match="tall_short chain is five lifts"):
                sim.sample_chain(4, "A", families=families, variant="tall_short")
        for families in (None, ["lift"]):
            chain = sim.sample_chain(4, "A", families=families, variant="tall_short")
            assert {t.family for t in chain.tasks} == {"lift"}

    def test_chain_spec_requires_five(self):
        with pytest.raises(ContractError):
            ChainSpec(tuple(), seed=0, palette="A")

    def test_expert_as_policy_all_true(self):
        for seed in (0, 1, 2, 3, 4):
            chain = sim.sample_chain(seed, "B")
            result = run_chain(ExpertAgent(), chain)
            assert result.successes == [True] * 5

    def test_expert_on_lift_only_chains(self):
        for seed in range(10):
            chain = sim.sample_chain(seed, "D", families=["lift"])
            assert all(t.family == "lift" for t in chain.tasks)
            result = run_chain(ExpertAgent(), chain)
            assert result.successes == [True] * 5

    def test_expert_on_tall_short_chains(self):
        for seed in range(10):
            chain = sim.sample_chain(seed, "D", variant="tall_short")
            assert {t.size for t in chain.tasks[:2]} == {"tall", "short"}
            result = run_chain(ExpertAgent(), chain)
            assert result.successes == [True] * 5

    def test_prefix_monotone(self):
        rng_agent = RandomAgent(7)
        for seed in range(20):
            chain = sim.sample_chain(seed, "A")
            result = run_chain(rng_agent, chain, max_steps_per_task=16)
            seen_false = False
            for ok in result.successes:
                if seen_false:
                    assert not ok
                seen_false = seen_false or not ok

    def test_random_policy_rarely_succeeds(self):
        # Regression bound from the reference run: task-1 success < 5%
        # over 200 chains for uniform random actions.
        wins = 0
        for i in range(200):
            chain = sim.sample_chain(1000 + i, "D", families=["lift"])
            result = run_chain(RandomAgent(i), chain, max_steps_per_task=64)
            wins += int(result.successes[0])
        assert wins / 200 < 0.05

    @pytest.mark.parametrize("make_agent", [lambda: RandomAgent(3), ExpertAgent],
                             ids=["random", "expert"])
    def test_agents_that_do_not_read_pixels_render_nothing(self, monkeypatch, make_agent):
        calls = []
        render = sim.render_observation
        monkeypatch.setattr(sim, "render_observation",
                            lambda states: calls.extend(states) or render(states))
        agent = make_agent()
        # The same agent told it reads pixels renders every step, as all
        # agents once did; the frames skipped above change no result.
        rendering = make_agent()
        rendering.reads_pixels = True
        for seed in range(5):
            chain = sim.sample_chain(seed, "B")
            calls.clear()
            got = run_chain(agent, chain, max_steps_per_task=16)
            assert calls == []
            want = run_chain(rendering, chain, max_steps_per_task=16)
            assert calls
            assert got == want

    def test_enriched_rollout_deterministic(self):
        chain = sim.sample_chain(3, "C")
        r1 = run_chain(ExpertAgent(), chain, enrich=True)
        r2 = run_chain(ExpertAgent(), chain, enrich=True)
        assert r1.successes == r2.successes


class TestVocabulary:
    def test_size_and_color_words_present(self):
        words = sim.vocabulary_words()
        for w in ("tall", "short", "red", "cyan", "block", "button", "slider", "bin"):
            assert w in words

    def test_roughly_sixty_words(self):
        assert 35 <= len(sim.vocabulary_words()) <= 80


def plain_rollout(agent, chain, max_steps_per_task=64, enrich=False):
    """The chain as one plain loop: the reference the stepped chain must match."""
    state = sim.make_env(chain.seed, chain.palette, chain.variant)
    agent.reset()
    para_rng = np.random.default_rng(
        np.random.SeedSequence(chain.seed, spawn_key=(sim._PARA_KEY,)))
    successes = []
    alive = True
    for template in chain.tasks:
        if not alive:
            successes.append(False)
            continue
        target = sim.resolve_target(state, template)
        task = dataclasses.replace(template, x0=float(target.pos[0]))
        text = sim.paraphrase_instruction(task, para_rng) if enrich else task.instruction
        agent.begin_task(task, text)
        ok = False
        for _ in range(max_steps_per_task):
            obs = sim.render_observation([state])[0] if agent.reads_pixels else None
            action = agent.act(obs, text, state=state)
            state = sim.step_env(state, action)
            if sim.success(state, task):
                ok = True
                break
        successes.append(ok)
        alive = ok
    return sim.ChainResult(successes, chain.seed, chain.palette)


def tiny_policy_agent():
    return pol.PolicyAgent(pol.init_model(tiny_config(patch=8), synthetic_stats()))


class Seeing(Recording):
    """A Recording that also keeps each observation act is given."""

    def __init__(self, agent, log, name=""):
        super().__init__(agent, log, name)
        self.seen = []

    def act(self, obs, instruction, state=None):
        self.seen.append(obs)
        return super().act(obs, instruction, state=state)


class TestSteppedChain:
    @pytest.mark.parametrize("make_agent, horizon, enrich", [
        (ExpertAgent, 64, False), (ExpertAgent, 64, True),
        (lambda: RandomAgent(5), 16, False), (tiny_policy_agent, 6, False),
    ], ids=["expert", "expert-enriched", "random", "policy"])
    def test_draining_matches_a_plain_loop(self, make_agent, horizon, enrich):
        for seed in (0, 3):
            chain = sim.sample_chain(seed, "B")
            drained, rolled, plain = [], [], []
            seeing = Seeing(make_agent(), drained)
            steps = sim.chain_steps(seeing, chain, horizon, enrich)
            yielded, sent = [], []
            obs = None
            while True:
                try:
                    state = steps.send(obs)
                except StopIteration as done:
                    result = done.value
                    break
                yielded.append(state)
                obs = None if state is None else sim.render_observation([state])[0]
                sent.append(obs)
            got = run_chain(Recording(make_agent(), rolled), chain, horizon, enrich)
            want = plain_rollout(Recording(make_agent(), plain), chain, horizon, enrich)
            assert result == got == want
            # One step per send: each yielded state's observation is acted on next.
            assert len(yielded) == len(seeing.seen) == len(drained)
            assert all(o is s for o, s in zip(sent, seeing.seen))
            assert all((y is None) != seeing.reads_pixels for y in yielded)
            assert all(isinstance(y, WorldState) for y in yielded if y is not None)
            assert action_bytes(drained) == action_bytes(rolled) == action_bytes(plain)

    def test_lockstep_acts_in_rounds_until_each_chain_ends(self):
        chain = sim.sample_chain(2, "A")
        log = []
        agents = [Recording(RandomAgent(1), log, "random"),
                  Recording(ExpertAgent(), log, "expert")]
        results = sim.lockstep([sim.chain_steps(a, chain, 8, False) for a in agents],
                               lambda observations: None)
        random_steps = sum(name == "random" for name, _ in log)
        assert [name for name, _ in log[:2 * random_steps]] == ["random", "expert"] * random_steps
        assert all(name == "expert" for name, _ in log[2 * random_steps:])
        assert results == [plain_rollout(RandomAgent(1), chain, 8),
                           plain_rollout(ExpertAgent(), chain, 8)]

    def test_a_round_has_every_observation_before_any_act(self):
        chain = sim.sample_chain(2, "A")
        log = []
        agents = [Seeing(tiny_policy_agent(), log, "policy"),
                  Seeing(ExpertAgent(), log, "expert")]
        rounds = []

        def before_acts(observations):
            rounds.append(dict(observations))
            log.append(("round", None))

        results = sim.lockstep([sim.chain_steps(a, chain, 8, False) for a in agents],
                               before_acts)
        expect = []
        for observations in rounds:  # each round, then one act per run in it, in order
            expect += ["round", *(agents[i].name for i in observations)]
        assert [name for name, _ in log] == expect
        assert [list(r) for r in rounds[:len(agents[0].seen)]] == [[0, 1]] * len(agents[0].seen)
        for i, agent in enumerate(agents):
            given = [r[i] for r in rounds if i in r]
            assert len(given) == len(agent.seen)
            assert all(g is o for g, o in zip(given, agent.seen))
        assert results == [run_chain(tiny_policy_agent(), chain, 8),
                           run_chain(ExpertAgent(), chain, 8)]
