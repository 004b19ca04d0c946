"""LineCatch: a deterministic catch-the-falling-dot gridworld.

The observation is a G x G binary image: one pixel for the falling
object, one for the paddle on the bottom row.  The object descends one
row per step; the paddle moves one column per action (left / stay /
right, clipped at the walls).  When the object reaches the paddle row
it lands: the score increases by one if the paddle is under it, and a
new object spawns at the top in a column drawn from the environment's
own rng.  Episodes have a fixed length, so a full drop cycle takes
grid_size - 1 steps and the number of drops per episode is
episode_len // (grid_size - 1).

The paddle can always reach any column before the object lands, so the
policy "move toward the object's column" catches every drop, and a
policy that ignores the observation catches each drop with probability
1 / grid_size.  Both facts make exact oracles for evaluation code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .network import NetworkSpec, dense, flatten, require_integer

LEFT, STAY, RIGHT = 0, 1, 2
NOOP_ACTION = STAY
ACTION_COUNT = 3


class LineCatchEnv:
    def __init__(self, grid_size: int = 8, episode_len: int = 112):
        require_integer("grid_size", grid_size)
        require_integer("episode_len", episode_len)
        if grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {grid_size}")
        if episode_len < 0:
            raise ValueError(f"episode_len must be >= 0, got {episode_len}")
        self.grid_size = int(grid_size)
        self.episode_len = int(episode_len)
        self._rng: Optional[np.random.Generator] = None
        self._paddle = 0
        self._obj_row = 0
        self._obj_col = 0
        self._steps = 0

    @property
    def action_count(self) -> int:
        return ACTION_COUNT

    @property
    def observation_shape(self) -> tuple[int, ...]:
        return (1, self.grid_size, self.grid_size)

    @property
    def noop_action(self) -> int:
        return NOOP_ACTION

    @property
    def done(self) -> bool:
        return self._steps >= self.episode_len

    def clone(self) -> "LineCatchEnv":
        return LineCatchEnv(self.grid_size, self.episode_len)

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self._paddle = self.grid_size // 2
        self._steps = 0
        self._spawn()
        return self._observe()

    def _spawn(self) -> None:
        self._obj_row = 0
        self._obj_col = int(self._rng.integers(self.grid_size))

    def _observe(self) -> np.ndarray:
        g = self.grid_size
        obs = np.zeros((g, g))
        obs[self._obj_row, self._obj_col] = 1.0
        obs[g - 1, self._paddle] = 1.0
        return obs[None]

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Apply one action; returns (observation, reward, done)."""
        if self._rng is None:
            raise RuntimeError("call reset(seed) before step")
        if action not in (LEFT, STAY, RIGHT):
            raise ValueError(f"action must be 0, 1 or 2, got {action}")
        if self._steps >= self.episode_len:
            raise RuntimeError("episode is over; call reset(seed)")
        self._paddle = min(max(self._paddle + int(action) - 1, 0), self.grid_size - 1)
        self._obj_row += 1
        reward = 0.0
        if self._obj_row == self.grid_size - 1:  # lands on the paddle row
            if self._obj_col == self._paddle:
                reward = 1.0
            self._spawn()
        self._steps += 1
        return self._observe(), reward, self._steps >= self.episode_len

    def drops_per_episode(self) -> int:
        return self.episode_len // (self.grid_size - 1)


def optimal_network(grid_size: int = 8) -> NetworkSpec:
    """A hand-built network whose greedy policy catches every drop.

    Object pixels vote for moving toward their column, paddle pixels
    for moving away from theirs, so q_left = paddle_col - object_col
    and q_right is its negative; a 0.5 bias on "stay" wins exactly when
    the paddle is already aligned.
    """
    g = grid_size
    w = np.zeros((3, g * g), dtype=np.float32)
    for row in range(g):
        for col in range(g):
            idx = row * g + col
            if row == g - 1:  # paddle row
                w[LEFT, idx] = float(col)
                w[RIGHT, idx] = float(-col)
            else:             # object rows
                w[LEFT, idx] = float(-col)
                w[RIGHT, idx] = float(col)
    bias = np.array([0.0, 0.5, 0.0], dtype=np.float32)
    return NetworkSpec((1, g, g), [flatten(), dense(w, bias, activation="none")])
