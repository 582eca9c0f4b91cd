import numpy as np
import pytest

from crowdgnn.autodiff import Var
from crowdgnn.data import TrajectoryWindow


def weighted_sum(x: Var, u) -> Var:
    """Scalar head sum(x * u) as one tape op; `u` is a constant."""

    def bw(g):
        x._ensure_grad()[...] += g * u

    return Var(np.sum(x.data * u), x, bw)


def cholesky_factor(sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of [[sx^2, r sx sy], [r sx sy, sy^2]], shape
    [..., 2, 2]: the oracle for the entries `gaussian.sample` applies."""
    sx, sy = sigma[..., 0], sigma[..., 1]
    zeros = np.zeros_like(sx)
    row0 = np.stack([sx, zeros], axis=-1)
    row1 = np.stack([rho * sy, sy * np.sqrt(1.0 - rho * rho)], axis=-1)
    return np.stack([row0, row1], axis=-2)


def random_window(
    rng: np.random.Generator,
    n_peds: int = 3,
    t_obs: int = 8,
    t_pred: int = 12,
    scene_id: str = "toy",
    box: float = 10.0,
    max_step: float = 0.5,
) -> TrajectoryWindow:
    """Random-walk window: uniform start positions, bounded random steps."""
    t_total = t_obs + t_pred
    start = rng.uniform(0, box, size=(n_peds, 1, 2))
    steps = rng.uniform(-max_step, max_step, size=(n_peds, t_total - 1, 2))
    pos = np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)
    return TrajectoryWindow(
        scene_id=scene_id,
        start_frame=0,
        positions=pos,
        t_obs=t_obs,
        t_pred=t_pred,
    )


def crossing_window(t_obs: int = 8, t_pred: int = 12) -> TrajectoryWindow:
    """Two pedestrians crossing linearly, constant velocity."""
    t_total = t_obs + t_pred
    t = np.arange(t_total, dtype=np.float64)
    p0 = np.stack([0.3 * t, 0.1 * t], axis=-1)
    p1 = np.stack([6.0 - 0.3 * t, 0.1 * t + 0.5], axis=-1)
    pos = np.stack([p0, p1])
    return TrajectoryWindow(
        scene_id="cross",
        start_frame=0,
        positions=pos,
        t_obs=t_obs,
        t_pred=t_pred,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
