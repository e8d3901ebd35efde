"""MiniManip: a deterministic language-conditioned tabletop gridworld.

The table is the unit square, viewed by two orthographic cameras: a
fixed third-person camera over the whole table and a gripper-centered
camera with a half-meter window. Both render RGB (object color over the
palette's table color) and depth (camera plane distance minus the top
height at each pixel), every plane IMAGE_HW pixels square. That frame
contract is stated once, in OBSERVATION_SHAPES, and check_observation is
the one check of it. Scenes hold colored blocks, buttons, a rail-bound
slider, and a bin; five task families (lift, push, press, place, slide)
come with scripted experts, a paraphrase bank, and 5-task chain
evaluation. TARGET_KINDS is the one table of which kind of object each
family acts on, and chain_families the one rule of which families can
fill a chain, shared by sample_chain and the command line.
render_observation paints a sequence of states in one vectorized pass,
so the painting is batched by whoever holds several states: a chain is
stepped, chain_steps being a generator that yields the state each step
needs painted and is sent back its observation, and lockstep drains
several of them in rounds, one step of each per round, painting the
round's states in one call; a round's observations all exist before any
agent acts on them, so their frames can be encoded together.
generate_dataset paints each demo's states in one call.
PARAPHRASE_BANK has a bank for each of FAMILIES; a task reaches
paraphrase_instruction only through resolve_target or _family_list,
which refuse an unknown family. A scene carries the colours it is painted
with, and a task its target's start x0. Everything is a pure function of
(seed, palette, actions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, TaskError, ValidationError

Array = np.ndarray

# --- geometry ---------------------------------------------------------------

TABLE_LO, TABLE_HI = 0.0, 1.0
BLOCK_CLAMP_MARGIN = 0.03  # pushed blocks keep this margin to the table edge
Z_MAX = 0.35               # gripper height ceiling
Z_CAM = 1.0                # camera plane height; depth = Z_CAM - top height
STEP_CLIP = 0.1            # per-step |delta| bound, meters and radians
HOVER_Z = 0.22             # expert transit height, above every object
EXPERT_STEP = 0.08         # expert per-step magnitude, inside the clip bound

GRASP_RADIUS = 0.08
GRASP_Z_TOL = 0.04
CONTACT_RADIUS = 0.085     # low gripper drags blocks/slider within this radius
CONTACT_Z_PAD = 0.04
BUTTON_RADIUS = 0.07
BUTTON_PRESS_Z = 0.065
LIFT_SUCCESS_Z = 0.18
PUSH_SUCCESS_DIST = 0.12
PLACE_RADIUS = 0.09
SLIDE_END_TOL = 0.03

BLOCK_HALF = 0.075
BLOCK_HEIGHT = 0.10
TALL_HEIGHT = 0.15
SHORT_HEIGHT = 0.05
BUTTON_HALF = 0.05
BUTTON_HEIGHT = 0.04
BUTTON_PRESSED_HEIGHT = 0.015
SLIDER_HALF = 0.05
SLIDER_HEIGHT = 0.06
BIN_HALF = 0.09
BIN_HEIGHT = 0.02
GRIPPER_HALF = 0.03

IMAGE_HW = 32              # square frame edge of every rendered plane, pixels
GRIPPER_CAM_WINDOW = 0.8   # wide-angle wrist view; target visible almost always

# Task family -> the kind of object its target is; the families in order.
TARGET_KINDS = {"lift": "block", "push": "block", "press": "button",
                "place": "block", "slide": "slider"}
FAMILIES = tuple(TARGET_KINDS)

# --- colors and palettes ----------------------------------------------------

COLORS: dict[str, tuple[float, float, float]] = {
    "red": (0.90, 0.12, 0.10),
    "green": (0.10, 0.75, 0.18),
    "blue": (0.12, 0.25, 0.90),
    "yellow": (0.92, 0.86, 0.12),
    "orange": (0.95, 0.55, 0.10),
    "purple": (0.60, 0.15, 0.80),
    "cyan": (0.10, 0.80, 0.80),
}

BIN_COLOR = (0.18, 0.18, 0.18)
RAIL_COLOR = (0.32, 0.28, 0.24)
GRIPPER_OPEN_COLOR = (0.04, 0.04, 0.04)
GRIPPER_CLOSED_COLOR = (0.46, 0.46, 0.46)


@dataclass(frozen=True)
class Palette:
    table_color: tuple[float, float, float]
    object_colors: tuple[str, ...]


# The four environment splits share a core color set; the extras of split D
# all occur in A-C, so D differs by table color and color combinations only.
PALETTES: dict[str, Palette] = {
    "A": Palette((0.72, 0.72, 0.72), ("red", "green", "blue", "yellow", "orange", "purple")),
    "B": Palette((0.78, 0.72, 0.62), ("red", "green", "blue", "yellow", "purple", "cyan")),
    "C": Palette((0.64, 0.70, 0.78), ("red", "green", "blue", "yellow", "cyan", "orange")),
    "D": Palette((0.68, 0.76, 0.66), ("red", "green", "blue", "yellow", "orange", "purple", "cyan")),
}

_PALETTE_INDEX = {name: i for i, name in enumerate(PALETTES)}  # colour-stream keys
VARIANTS = ("standard", "tall_short")  # the scenes make_env builds

# SeedSequence spawn keys, so the independent random streams never collide.
_GEOM_KEY, _COLOR_KEY, _TASK_KEY, _CHAIN_KEY, _PARA_KEY = 0, 1, 2, 3, 4


# --- world ------------------------------------------------------------------


@dataclass
class Obj:
    kind: str                    # block | button | slider | bin
    color: str                   # key into COLORS, or "" for bin
    pos: Array                   # (x, y) center, meters
    height: float
    held: bool = False
    pressed: bool = False
    rail: tuple[float, float] | None = None   # slider x-range

    def copy(self) -> "Obj":
        return Obj(self.kind, self.color, self.pos.copy(), self.height,
                   self.held, self.pressed, self.rail)


@dataclass
class WorldState:
    gripper_pos: Array           # (x, y, z)
    gripper_open: bool
    objects: list[Obj]
    # Draws from the palette's texture distribution; read-only once sampled.
    table_color: tuple[float, float, float]
    scene_colors: dict[str, tuple[float, float, float]]

    def copy(self) -> "WorldState":
        return WorldState(self.gripper_pos.copy(), self.gripper_open,
                          [o.copy() for o in self.objects],
                          self.table_color, self.scene_colors)

    def held_object(self) -> Obj | None:
        for o in self.objects:
            if o.held:
                return o
        return None

    def validate(self) -> None:
        held = sum(o.held for o in self.objects)
        if held > 1:
            raise ContractError(f"{held} objects held at once")
        for o in self.objects:
            if not (TABLE_LO <= o.pos[0] <= TABLE_HI and TABLE_LO <= o.pos[1] <= TABLE_HI):
                raise ContractError(f"object out of bounds at {o.pos}")
        g = self.gripper_pos
        if not (TABLE_LO <= g[0] <= TABLE_HI and TABLE_LO <= g[1] <= TABLE_HI
                and 0.0 <= g[2] <= Z_MAX):
            raise ContractError(f"gripper out of bounds at {g}")


@dataclass(frozen=True)
class TaskSpec:
    family: str
    color: str
    size: str | None             # None | "tall" | "short"
    instruction: str
    x0: float                    # target x at task start; push's success reads it


@dataclass(frozen=True)
class ChainSpec:
    tasks: tuple[TaskSpec, ...]
    seed: int
    palette: str
    variant: str = "standard"

    def __post_init__(self):
        if len(self.tasks) != 5:
            raise ContractError(f"a chain holds exactly 5 tasks, got {len(self.tasks)}")


@dataclass
class Observation:
    """Two RGB frames in [0,1] and two depth frames in meters, float32."""

    rgb_static: Array
    rgb_gripper: Array
    depth_static: Array
    depth_gripper: Array


# The frame contract: every plane of an Observation, with its shape.
OBSERVATION_SHAPES = {
    "rgb_static": (IMAGE_HW, IMAGE_HW, 3),
    "rgb_gripper": (IMAGE_HW, IMAGE_HW, 3),
    "depth_static": (IMAGE_HW, IMAGE_HW),
    "depth_gripper": (IMAGE_HW, IMAGE_HW),
}


def check_observation(obs: Observation, where: str) -> None:
    """Raise DimensionError, prefixed with where, unless every plane of obs
    has the shape render_observation gives it. Checks shapes only, so it
    costs the same at any frame content."""
    for plane, want in OBSERVATION_SHAPES.items():
        shape = np.shape(getattr(obs, plane))
        if shape != want:
            raise DimensionError(f"{where}: {plane} has shape {shape}, expected {want}")


@dataclass
class Action:
    pose: Array                  # (dx, dy, dz, droll, dpitch, dyaw)
    gripper_closed: bool

    @staticmethod
    def zero(closed: bool) -> "Action":
        return Action(np.zeros(6), closed)


@dataclass
class Trajectory:
    instruction: str
    family: str
    palette: str
    seed: int
    steps: list[tuple[Observation, Action]]
    variant: str = "standard"


@dataclass
class ChainResult:
    successes: list[bool]
    seed: int
    palette: str
    chain_id: int | None = None


# --- scene construction -----------------------------------------------------


def _grid_cells() -> list[tuple[float, float]]:
    centers = np.linspace(0.17, 0.83, 5)
    return [(float(x), float(y)) for y in centers for x in centers]


def make_env(seed: int, palette: str, variant: str = "standard") -> WorldState:
    """Deterministic initial scene. Geometry depends only on the seed;
    colors additionally depend on the palette, so splits share layouts."""
    if palette not in PALETTES:
        raise ContractError(f"unknown palette {palette!r}; expected one of A-D")
    if variant not in VARIANTS:
        raise ContractError(f"unknown scene variant {variant!r}")
    pal = PALETTES[palette]
    geom = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_GEOM_KEY,)))
    colr = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_COLOR_KEY, _PALETTE_INDEX[palette]))
    )

    centers = np.linspace(0.17, 0.83, 5)
    rail_row = float(centers[geom.integers(0, 5)])
    rail = (0.25, 0.70)
    cells = [c for c in _grid_cells()
             if not (abs(c[1] - rail_row) < 1e-9 and rail[0] - 0.09 <= c[0] <= rail[1] + 0.09)]
    order = geom.permutation(len(cells))

    names = list(pal.object_colors)
    block_colors = [names[i] for i in colr.permutation(len(names))[:5]]
    button_colors = [names[i] for i in colr.permutation(len(names))[:2]]
    slider_color = names[int(colr.integers(0, len(names)))]

    objects: list[Obj] = []
    take = iter(order)

    if variant == "tall_short":
        pair_color = block_colors[0]
        heights = [TALL_HEIGHT, SHORT_HEIGHT]
        if geom.random() < 0.5:
            heights.reverse()
        for h in heights:
            cx, cy = cells[next(take)]
            objects.append(Obj("block", pair_color, np.array([cx, cy]), h))
        for color in block_colors[1:4]:
            cx, cy = cells[next(take)]
            objects.append(Obj("block", color, np.array([cx, cy]), BLOCK_HEIGHT))
    else:
        for color in block_colors:
            cx, cy = cells[next(take)]
            objects.append(Obj("block", color, np.array([cx, cy]), BLOCK_HEIGHT))

    for color in button_colors:
        cx, cy = cells[next(take)]
        objects.append(Obj("button", color, np.array([cx, cy]), BUTTON_HEIGHT))

    slider_x0 = rail[0] + 0.03
    objects.append(Obj("slider", slider_color, np.array([slider_x0, rail_row]),
                       SLIDER_HEIGHT, rail=rail))
    cx, cy = cells[next(take)]
    objects.append(Obj("bin", "", np.array([cx, cy]), BIN_HEIGHT))

    gx, gy = geom.uniform(0.2, 0.8, size=2)

    def jitter(rgb, spread):
        return tuple(float(np.clip(c + colr.uniform(-spread, spread), 0.0, 1.0))
                     for c in rgb)

    table_color = jitter(pal.table_color, 0.03)
    scene_colors = {name: jitter(COLORS[name], 0.02) for name in pal.object_colors}

    state = WorldState(np.array([gx, gy, HOVER_Z]), True, objects, table_color, scene_colors)
    state.validate()
    return state


# --- dynamics ---------------------------------------------------------------


def _grasp_z(block: Obj) -> float:
    return max(block.height - 0.02, 0.01)


def step_env(state: WorldState, action: Action) -> WorldState:
    """One deterministic physics step; out-of-bounds motion clamps. A pose
    with a non-finite entry raises ContractError."""
    pose = np.asarray(action.pose, dtype=np.float64)
    if not np.isfinite(pose).all():
        raise ContractError(f"action pose must be finite, got {pose}")
    s = state.copy()
    delta = np.clip(pose[:3], -STEP_CLIP, STEP_CLIP)
    old = s.gripper_pos.copy()
    new = old + delta
    new[0] = np.clip(new[0], TABLE_LO, TABLE_HI)
    new[1] = np.clip(new[1], TABLE_LO, TABLE_HI)
    new[2] = np.clip(new[2], 0.0, Z_MAX)
    s.gripper_pos = new
    dxy = new[:2] - old[:2]

    held = s.held_object()
    if held is not None:
        held.pos = new[:2].copy()
    elif dxy[0] != 0.0 or dxy[1] != 0.0:
        # Low gripper drags nearby blocks and the slider.
        for obj in s.objects:
            if obj.kind not in ("block", "slider"):
                continue
            if np.linalg.norm(new[:2] - obj.pos) > CONTACT_RADIUS:
                continue
            if new[2] > obj.height + CONTACT_Z_PAD:
                continue
            if obj.kind == "slider":
                obj.pos[0] = float(np.clip(obj.pos[0] + dxy[0], obj.rail[0], obj.rail[1]))
            else:
                obj.pos = np.clip(obj.pos + dxy, BLOCK_CLAMP_MARGIN,
                                  TABLE_HI - BLOCK_CLAMP_MARGIN)

    if action.gripper_closed and s.gripper_open:
        s.gripper_open = False
        best, best_d = None, np.inf
        for obj in s.objects:
            if obj.kind != "block":
                continue
            d = float(np.linalg.norm(new[:2] - obj.pos))
            if d <= GRASP_RADIUS and abs(new[2] - _grasp_z(obj)) <= GRASP_Z_TOL and d < best_d:
                best, best_d = obj, d
        if best is not None:
            best.held = True
            best.pos = new[:2].copy()
    elif not action.gripper_closed and not s.gripper_open:
        s.gripper_open = True
        for obj in s.objects:
            if obj.held:
                obj.held = False
                obj.pos = new[:2].copy()

    for obj in s.objects:
        if obj.kind == "button" and not obj.pressed:
            if (np.linalg.norm(new[:2] - obj.pos) <= BUTTON_RADIUS
                    and new[2] <= BUTTON_PRESS_Z):
                obj.pressed = True
                obj.height = BUTTON_PRESSED_HEIGHT
    return s


# --- rendering --------------------------------------------------------------


def _effective_height(obj: Obj, state: WorldState) -> float:
    return float(state.gripper_pos[2]) if obj.held else obj.height


# Per object kind: the half edge of its square footprint.
_FOOTPRINT_HALF = {"block": BLOCK_HALF, "button": BUTTON_HALF, "slider": SLIDER_HALF,
                   "bin": BIN_HALF}
# The entries a pixel may show are the set bits of one unsigned 64-bit word.
MAX_PAINT_ENTRIES = 64
_ENTRY_BITS = np.array([1 << k for k in range(MAX_PAINT_ENTRIES)], dtype=np.uint64)
# Per camera, static first: the window's edge, and each pixel center's
# offset from the window's low edge.
_WINDOW = np.array([[1.0], [GRIPPER_CAM_WINDOW]])
_PIXEL_OFFSETS = (np.arange(IMAGE_HW) + 0.5) * _WINDOW / IMAGE_HW


def _paint_order(state: WorldState) -> list[tuple]:
    """What a pixel of state may show, in pick order, each entry (top
    height, center x, center y, half width, half depth, r, g, b): the
    gripper marker, since the arm enters from above; then the stamps
    (each slider's rail, then the objects) by top height, highest first,
    earlier stamps first among equals; then the table. A stamp whose top
    is not above the table is left out, as it shows nowhere."""
    tints = state.scene_colors
    stamps = []
    for obj in state.objects:
        if obj.kind == "slider":
            rx0, rx1 = obj.rail
            stamps.append((0.005, (rx0 + rx1) / 2, obj.pos[1], (rx1 - rx0) / 2 + SLIDER_HALF,
                           0.015, *RAIL_COLOR))
    for obj in state.objects:
        h = _effective_height(obj, state)
        if h <= 0.0:
            continue
        if obj.kind == "block":
            rgb = tints[obj.color]
        elif obj.kind == "button":
            # Buttons are pastel so saturated colors belong to blocks only.
            rgb = [0.45 * c + 0.55 for c in tints[obj.color]]
            if obj.pressed:
                rgb = [c * 0.55 for c in rgb]
        elif obj.kind == "slider":
            rgb = [0.55 * c for c in tints[obj.color]]  # shaded handle
        else:
            rgb = BIN_COLOR
        half = _FOOTPRINT_HALF[obj.kind]
        stamps.append((h, obj.pos[0], obj.pos[1], half, half, *rgb))
    stamps.sort(key=lambda entry: -entry[0])  # stable: earlier stamps win ties
    g = state.gripper_pos
    marker = GRIPPER_OPEN_COLOR if state.gripper_open else GRIPPER_CLOSED_COLOR
    return [(g[2], g[0], g[1], GRIPPER_HALF, GRIPPER_HALF, *marker), *stamps,
            (0.0, 0.0, 0.0, np.inf, np.inf, *state.table_color)]


def _first_rows(rows: Array, cols: Array) -> Array:
    """Per pixel (..., row, column), k + 1 for the lowest bit k set in both
    its row's mask and its column's, some bit being set: the frexp
    exponent of 2**k, a float exactly. render_observation calls it once
    per state, so its 64-bit temporaries stay the size of one state's."""
    shown = rows[..., :, None] & cols[..., None, :]
    shown &= -shown  # the lowest set bit alone
    return np.frexp(shown)[1]


def render_observation(states: Sequence[WorldState]) -> list[Observation]:
    """Each state's orthographic third-person view plus its
    gripper-centered zoom, one Observation per state, all painted in one
    pass; states must not be empty.

    A pixel shows the first entry of its state's _paint_order whose
    footprint holds it, which is what stamping every object over lower
    tops, then the marker over all, leaves. Per state and camera, each
    pixel column and each pixel row gets one 64-bit mask of the entries
    whose x or y interval holds it, so a pixel's first entry is the
    lowest set bit of its column's mask AND its row's; its colour and
    depth are gathered from per-entry float32 tables. A state whose
    paint order exceeds MAX_PAINT_ENTRIES raises ContractError.
    """
    orders = [_paint_order(state) for state in states]
    n = max(map(len, orders))
    if n > MAX_PAINT_ENTRIES:
        raise ContractError(f"a state paints at most {MAX_PAINT_ENTRIES} entries, got {n}")
    # Per state, row k + 1 holds entry k, so a _first_rows value picks its
    # row. Row 0 and the rows past a shorter order repeat its table, which
    # holds every pixel, so no pixel reaches them.
    entries = np.array([order[-1:] + order + order[-1:] * (n - len(order))
                        for order in orders])
    # Per entry, axis (x, y) and state: the footprint's center and half edge.
    center, half = (entries[:, 1:].T[1:5].reshape(2, 2, n, len(orders))
                    .transpose(0, 2, 1, 3)[..., None, None])
    # Per axis, state and camera: the pixel centers' coordinates.
    lines = np.full((2, len(orders), 2, 1), 0.5)
    lines[:, :, 1, 0] = np.array([state.gripper_pos[:2] for state in states]).T
    lines = lines - _WINDOW / 2 + _PIXEL_OFFSETS
    holds = np.abs(lines - center) <= half  # (entry, axis, state, camera, pixel line)
    bits = _ENTRY_BITS[:n, None, None, None, None]
    cols, rows = np.bitwise_or.reduce(np.where(holds, bits, 0), 0)  # (state, camera, line)
    colour = entries[..., 5:].astype(np.float32)
    depth = (Z_CAM - entries[..., 0]).astype(np.float32)
    return [Observation(*colour[s].take(first, axis=0), *depth[s].take(first))
            for s, first in enumerate(map(_first_rows, rows, cols))]


# --- tasks ------------------------------------------------------------------


def _size_of(block: Obj) -> str | None:
    if block.height >= 0.12:
        return "tall"
    if block.height <= 0.07:
        return "short"
    return None


def resolve_target(state: WorldState, task: TaskSpec) -> Obj:
    """The object task names: the nearest to the gripper among those of
    its family's kind, color and size. TaskError for an unknown family or
    when none matches."""
    kind = TARGET_KINDS.get(task.family)
    if kind is None:
        raise TaskError(f"unknown task family {task.family!r}")
    matches = []
    for obj in state.objects:
        if obj.kind != kind:
            continue
        if task.color and obj.color != task.color:
            continue
        if task.size is not None and _size_of(obj) != task.size:
            continue
        matches.append(obj)
    if not matches:
        raise TaskError(
            f"no {kind} matches descriptor color={task.color!r} size={task.size!r}"
        )
    g = state.gripper_pos[:2]
    return min(matches, key=lambda o: float(np.linalg.norm(g - o.pos)))


def _find_bin(state: WorldState) -> Obj:
    for obj in state.objects:
        if obj.kind == "bin":
            return obj
    raise TaskError("scene has no bin")


def make_task(state: WorldState, family: str, target: Obj) -> TaskSpec:
    """Instantiate a task against a live scene, with the target's start x,
    which push's success predicate reads."""
    size = _size_of(target) if family == "lift" and _is_ambiguous(state, target) else None
    qual = f"{size} {target.color}" if size else target.color
    return TaskSpec(family, target.color, size,
                    PARAPHRASE_BANK[family][0].format(t=qual), float(target.pos[0]))


def _is_ambiguous(state: WorldState, block: Obj) -> bool:
    same = [o for o in state.objects if o.kind == "block" and o.color == block.color]
    return len(same) > 1


def success(state: WorldState, task: TaskSpec) -> bool:
    """The task predicate, evaluated against the live state."""
    target = resolve_target(state, task)
    if task.family == "lift":
        return target.held and state.gripper_pos[2] >= LIFT_SUCCESS_Z
    if task.family == "push":
        return float(target.pos[0]) - task.x0 >= PUSH_SUCCESS_DIST
    if task.family == "press":
        return target.pressed
    if task.family == "place":
        return (not target.held
                and float(np.linalg.norm(target.pos - _find_bin(state).pos)) <= PLACE_RADIUS)
    return float(target.pos[0]) >= target.rail[1] - SLIDE_END_TOL  # slide


def _family_list(families: Sequence[str] | None) -> list[str]:
    """The families to draw from: all of them when none are given."""
    fams = list(families) if families else list(FAMILIES)
    for f in fams:
        if f not in FAMILIES:
            raise TaskError(f"unknown task family {f!r}")
    return fams


def sample_task(state: WorldState, rng: np.random.Generator,
                families: Sequence[str] | None = None) -> TaskSpec:
    """Pick a random feasible task against the scene."""
    fams = _family_list(families)
    family = fams[int(rng.integers(0, len(fams)))]
    kind = TARGET_KINDS[family]
    candidates = [o for o in state.objects if o.kind == kind]
    if not candidates:
        raise TaskError(f"scene has no {kind} for family {family!r}")
    target = candidates[int(rng.integers(0, len(candidates)))]
    return make_task(state, family, target)


# --- paraphrase bank ---------------------------------------------------------

# Ten-plus templates per family; "{t}" is the (size-qualified) color phrase.
# The canonical instruction is always entry zero.
PARAPHRASE_BANK: dict[str, tuple[str, ...]] = {
    "lift": (
        "lift the {t} block",
        "pick up the {t} block",
        "raise the {t} block",
        "grab and hold the {t} block",
        "hoist the {t} block",
        "take the {t} block up",
        "elevate the {t} block",
        "grab the {t} block and raise it",
        "pick the {t} block up",
        "lift up the {t} block",
        "bring the {t} block up",
    ),
    "push": (
        "push the {t} block right",
        "shove the {t} block right",
        "nudge the {t} block to the right",
        "push the {t} block to the right",
        "slide the {t} block right",
        "move the {t} block right",
        "drag the {t} block to the right",
        "push the {t} block rightward",
        "shift the {t} block right",
        "scoot the {t} block to the right",
    ),
    "press": (
        "press the {t} button",
        "push the {t} button",
        "tap the {t} button",
        "hit the {t} button",
        "press down the {t} button",
        "poke the {t} button",
        "push down on the {t} button",
        "depress the {t} button",
        "tap on the {t} button",
        "press on the {t} button",
    ),
    "place": (
        "put the {t} block in the bin",
        "place the {t} block in the bin",
        "drop the {t} block in the bin",
        "move the {t} block into the bin",
        "put the {t} block into the bin",
        "set the {t} block in the bin",
        "carry the {t} block to the bin",
        "place the {t} block into the bin",
        "drop the {t} block into the bin",
        "bring the {t} block to the bin",
    ),
    "slide": (
        "slide the {t} slider right",
        "push the {t} slider right",
        "move the {t} slider right",
        "drag the {t} slider to the right",
        "slide the {t} slider to the right",
        "shift the {t} slider right",
        "push the {t} slider to the right end",
        "move the {t} slider to the right end",
        "scoot the {t} slider right",
        "slide the {t} slider rightward",
    ),
}


def paraphrase_instruction(task: TaskSpec, rng: np.random.Generator) -> str:
    """Uniform draw from the task family's paraphrase bank."""
    bank = PARAPHRASE_BANK[task.family]
    qual = f"{task.size} {task.color}" if task.size else task.color
    template = bank[int(rng.integers(0, len(bank)))]
    return template.format(t=qual)


def vocabulary_words() -> list[str]:
    """Closed word set of all instruction templates plus color/size terms."""
    words: set[str] = set()
    for bank in PARAPHRASE_BANK.values():
        for template in bank:
            for w in template.replace("{t}", "").split():
                words.add(w.lower())
    words.update(COLORS)
    words.update(("tall", "short"))
    return sorted(words)


# --- scripted experts --------------------------------------------------------


def _goto(state: WorldState, point, closed: bool) -> Action:
    delta = np.asarray(point, dtype=np.float64) - state.gripper_pos
    pose = np.zeros(6)
    pose[:3] = np.clip(delta, -EXPERT_STEP, EXPERT_STEP)
    return Action(pose, closed)


def expert_action(state: WorldState, task: TaskSpec) -> Action:
    """Waypoint controller that completes any resolvable task in <= 64 steps."""
    target = resolve_target(state, task)
    g = state.gripper_pos
    held = state.held_object()
    family = task.family

    needs_grasp = family in ("lift", "place")
    if held is not None and (not needs_grasp or held is not target):
        return Action.zero(closed=False)  # release whatever we carry

    if family == "lift":
        if target.held:
            return _goto(state, (target.pos[0], target.pos[1], HOVER_Z + 0.02), True)
        return _approach_and_grasp(state, target)

    if family == "place":
        if not target.held:
            return _approach_and_grasp(state, target)
        dst = _find_bin(state)
        if np.linalg.norm(g[:2] - dst.pos) > 0.03:
            return _goto(state, (dst.pos[0], dst.pos[1], HOVER_Z), True)
        return Action.zero(closed=False)  # release over the bin

    if family == "press":
        if np.linalg.norm(g[:2] - target.pos) > 0.02:
            return _goto(state, (target.pos[0], target.pos[1], HOVER_Z), False)
        return _goto(state, (target.pos[0], target.pos[1], 0.03), False)

    # push and slide: approach from the left at push height, then drive right.
    push_z = 0.05
    behind = (g[2] <= push_z + 0.015
              and g[0] < target.pos[0]
              and abs(g[1] - target.pos[1]) <= 0.025
              and target.pos[0] - g[0] <= CONTACT_RADIUS + 0.05)
    if behind:
        return _goto(state, (g[0] + 0.06, target.pos[1], push_z), False)
    ax = target.pos[0] - CONTACT_RADIUS - 0.025
    if np.linalg.norm(g[:2] - np.array([ax, target.pos[1]])) > 0.02:
        return _goto(state, (ax, target.pos[1], HOVER_Z), False)
    return _goto(state, (ax, target.pos[1], push_z), False)


def _approach_and_grasp(state: WorldState, target: Obj) -> Action:
    g = state.gripper_pos
    gz = _grasp_z(target)
    if np.linalg.norm(g[:2] - target.pos) > 0.025:
        return _goto(state, (target.pos[0], target.pos[1], HOVER_Z), False)
    if abs(g[2] - gz) > 0.02:
        return _goto(state, (target.pos[0], target.pos[1], gz), False)
    return Action.zero(closed=True)  # grab


# Steps the expert may take on one task before run_expert_episode gives up.
EXPERT_MAX_STEPS = 64


def run_expert_episode(state: WorldState, task: TaskSpec
                       ) -> tuple[WorldState, list[tuple[WorldState, Action]]]:
    """Roll the expert until the task predicate fires, for at most
    EXPERT_MAX_STEPS steps (TaskError after that).

    Returns (final_state, steps), steps being each step's (state, action);
    nothing is rendered, so callers that want pixels render those states.
    """
    steps: list[tuple[WorldState, Action]] = []
    for _ in range(EXPERT_MAX_STEPS):
        action = expert_action(state, task)
        steps.append((state, action))
        state = step_env(state, action)
        if success(state, task):
            return state, steps
    raise TaskError(
        f"expert failed {task.family!r} on {task.color!r} within {EXPERT_MAX_STEPS} steps"
    )


# --- dataset generation -------------------------------------------------------


def generate_dataset(n: int, seed: int, palettes: Sequence[str],
                     families: Sequence[str] | None = None,
                     variant: str = "standard",
                     enrich: bool = False) -> list[Trajectory]:
    """n expert demonstrations, cycling over the requested palettes; each
    demo's states are painted in one render_observation call."""
    if n < 1:
        raise ContractError("dataset size must be >= 1")
    if not palettes:
        raise ContractError("at least one palette is required")
    out: list[Trajectory] = []
    for i in range(n):
        palette = palettes[i % len(palettes)]
        env_seed = seed + i
        state = make_env(env_seed, palette, variant)
        rng = np.random.default_rng(np.random.SeedSequence(env_seed, spawn_key=(_TASK_KEY,)))
        task = sample_task(state, rng, families)
        text = paraphrase_instruction(task, rng) if enrich else task.instruction
        _, steps = run_expert_episode(state, task)
        observations = render_observation([s for s, _ in steps])
        out.append(Trajectory(text, task.family, palette, env_seed,
                              [(obs, a) for obs, (_, a) in zip(observations, steps)], variant))
    return out


# --- chains -------------------------------------------------------------------


def chain_families(families: Sequence[str] | None, variant: str = "standard") -> list[str]:
    """The families a chain of variant draws its tasks from.

    A tall_short chain is five lifts, so its families must be None or
    ["lift"]; ValidationError otherwise. A standard chain draws from
    families (all of them when None). Its five targets are distinct
    objects, and a scene holds five blocks but only two buttons and one
    slider, so one of the families must target a block; ValidationError
    otherwise.
    """
    if variant == "tall_short":
        if families and list(families) != ["lift"]:
            raise ValidationError(f"a tall_short chain is five lifts; families "
                                  f"{list(families)} would be ignored (give none or lift)")
        return ["lift"]
    fams = _family_list(families)
    if not any(TARGET_KINDS[f] == "block" for f in fams):
        block_families = [f for f, kind in TARGET_KINDS.items() if kind == "block"]
        raise ValidationError(f"cannot build a 5-task chain from families {fams}: "
                              f"one of {block_families} is needed")
    return fams


def sample_chain(seed: int, palette: str, families: Sequence[str] | None = None,
                 variant: str = "standard") -> ChainSpec:
    """Five compatible tasks over the scene that make_env(seed, palette) builds.

    Targets are distinct objects, of families from chain_families; the
    tall_short variant leads with the two size-qualified lifts of the
    same-color pair.
    """
    fams = chain_families(families, variant)
    state = make_env(seed, palette, variant)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_CHAIN_KEY,)))
    blocks = [o for o in state.objects if o.kind == "block"]

    tasks: list[TaskSpec] = []
    if variant == "tall_short":
        pair = [b for b in blocks if _is_ambiguous(state, b)]
        rest = [b for b in blocks if not _is_ambiguous(state, b)]
        if rng.random() < 0.5:
            pair.reverse()
        for b in pair:
            tasks.append(make_task(state, "lift", b))
        order = rng.permutation(len(rest))
        for i in order[:3]:
            tasks.append(make_task(state, "lift", rest[i]))
        return ChainSpec(tuple(tasks), seed, palette, variant)

    used: set[int] = set()
    for _ in range(5):
        free = [o for o in state.objects if id(o) not in used]
        feasible = [f for f in fams if any(o.kind == TARGET_KINDS[f] for o in free)]
        family = feasible[int(rng.integers(0, len(feasible)))]
        cands = [o for o in free if o.kind == TARGET_KINDS[family]]
        target = cands[int(rng.integers(0, len(cands)))]
        used.add(id(target))
        tasks.append(make_task(state, family, target))
    return ChainSpec(tuple(tasks), seed, palette, variant)


class ExpertAgent:
    """Privileged oracle agent: acts from the world state, not pixels."""

    reads_pixels = False

    def __init__(self):
        self._task: TaskSpec | None = None

    def for_chain(self) -> "ExpertAgent":
        """An agent for one chain of an evaluation."""
        return ExpertAgent()

    def reset(self):
        self._task = None

    def begin_task(self, task: TaskSpec, instruction: str):
        self._task = task

    def act(self, obs: Observation | None, instruction: str,
            state: WorldState | None = None) -> Action:
        if state is None or self._task is None:
            raise ContractError("expert agent needs the world state and a task")
        return expert_action(state, self._task)


class RandomAgent:
    """Uniform random actions inside the clip bound; the no-skill baseline."""

    reads_pixels = False

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def for_chain(self) -> "RandomAgent":
        """An agent for one chain of an evaluation, seeded by a draw from
        this one's generator: chains take their seeds in chain order, so
        each chain's actions do not depend on how chains interleave."""
        return RandomAgent(int(self._rng.integers(2 ** 63)))

    def reset(self):
        pass

    def begin_task(self, task: TaskSpec, instruction: str):
        pass

    def act(self, obs, instruction, state=None) -> Action:
        pose = np.zeros(6)
        pose[:3] = self._rng.uniform(-STEP_CLIP, STEP_CLIP, size=3)
        return Action(pose, bool(self._rng.random() < 0.5))


def chain_steps(agent, chain: ChainSpec, max_steps_per_task: int, enrich: bool):
    """The stepped chain: a generator that executes the 5 tasks in order,
    one policy step per send. Each step yields the world state it needs
    painted, or None when the agent's class attribute reads_pixels is
    false, and is sent back that state's observation (None for None);
    the agent acts on it (with the world state, as always), the env steps
    and success is checked. The chain paints nothing itself: whoever
    drives it paints what it yields, lockstep a round at a time. Task i
    runs only if tasks 1..i-1 succeeded. It returns the ChainResult, as
    the value of its StopIteration.
    """
    state = make_env(chain.seed, chain.palette, chain.variant)
    agent.reset()
    para_rng = np.random.default_rng(np.random.SeedSequence(chain.seed, spawn_key=(_PARA_KEY,)))
    successes: list[bool] = []
    alive = True
    for template in chain.tasks:
        if not alive:
            successes.append(False)
            continue
        target = resolve_target(state, template)
        task = replace(template, x0=float(target.pos[0]))
        text = paraphrase_instruction(task, para_rng) if enrich else task.instruction
        agent.begin_task(task, text)
        ok = False
        for _ in range(max_steps_per_task):
            obs = yield state if agent.reads_pixels else None
            state = step_env(state, agent.act(obs, text, state=state))
            ok = bool(success(state, task))
            if ok:
                break
        successes.append(ok)
        alive = ok
    return ChainResult(successes, chain.seed, chain.palette)


def lockstep(runs, before_acts) -> list[ChainResult]:
    """Drain stepped chains (see chain_steps) in rounds, returning their
    ChainResults in the order given.

    Each round advances every unfinished run once, in order: it is sent
    the observation of the state it yielded last, acts on it, steps the
    env and checks success, then yields its next state to paint, or
    ends. So several agents on one chain act at the same step one after
    another. Once every run of the round has yielded, one
    render_observation call paints the states of all its pixel-reading
    runs (a round of none makes no call). Then before_acts gets the
    round's new observations as {run index: observation, None for a run
    that reads no pixels}, before any agent acts on them, so a round's
    frames can be encoded together.
    """
    results: list[ChainResult | None] = [None] * len(runs)
    live = dict(enumerate(runs))
    observations = dict.fromkeys(live)
    while live:
        states = {}
        for i, run in list(live.items()):
            try:
                states[i] = run.send(observations[i])
            except StopIteration as done:
                results[i] = done.value
                del live[i]
        observations = dict.fromkeys(states)
        painted = [i for i, state in states.items() if state is not None]
        if painted:
            observations.update(zip(painted, render_observation([states[i] for i in painted])))
        if observations:
            before_acts(observations)
    return results
