from pathlib import Path

import numpy as np
import pytest

from svcreject import FeatureSpace, LinearModel, RejectModel

from oracles import witness_layout, witness_points

DATA_DIR = Path(__file__).parent / "data"

# Two-feature demonstration model: the weight magnitudes suggest f2 matters
# most, yet near x = (0.0526, 0.3) only f1 is needed to pin the prediction.
DEMO_W = np.array([-0.8, 2.0])
DEMO_B = 0.05
DEMO_X = np.array([0.0526, 0.3])

# Six-feature model with a calibrated reject band; the probe instance lands
# inside the band.
BAND_W = np.array([0.72863148, 1.97781269, 0.85680605, -0.32466632, -3.42937211, 2.43522629])
BAND_B = 1.10008469
BAND_T_MINUS = -0.3334
BAND_T_PLUS = 0.8396
BAND_X = np.array([0.25125386, 0.4244373, 0.7214483, 0.20007403, 0.71932466, 0.15363128])


@pytest.fixture
def demo_model() -> LinearModel:
    return LinearModel(DEMO_W, DEMO_B)


@pytest.fixture
def demo_space() -> FeatureSpace:
    return FeatureSpace.unit(["f1", "f2"])


@pytest.fixture
def demo_reject(demo_model) -> RejectModel:
    # zero-width band: rejection only at d(x) == 0 exactly
    return RejectModel(demo_model, 0.0, 0.0, 0.24)


@pytest.fixture
def band_reject() -> RejectModel:
    return RejectModel(LinearModel(BAND_W, BAND_B), BAND_T_MINUS, BAND_T_PLUS, 0.24)


@pytest.fixture
def band_space() -> FeatureSpace:
    return FeatureSpace.unit([f"f{i}" for i in range(1, 7)])


@pytest.fixture
def iris_csv() -> Path:
    return DATA_DIR / "iris.csv"


def random_reject_model(rng: np.random.Generator, n_features: int) -> RejectModel:
    """A random model over the unit box whose band straddles zero."""
    w = rng.uniform(-4.0, 4.0, n_features)
    b = float(rng.uniform(-1.0, 1.0))
    t_plus = float(rng.uniform(0.0, 1.0))
    t_minus = float(-rng.uniform(0.0, 1.0))
    return RejectModel(LinearModel(w, b), t_minus, t_plus, 0.24)


def certificates(batch, k: int) -> dict[int, np.ndarray]:
    """Row k's certificate point of each kept feature, laid out in full by
    the witness-matrix referee."""
    _, kept, free, at_max = witness_layout(batch, k, k + 1)
    points = witness_points(free, at_max, batch.instances[k], batch.box.max_corner,
                            batch.box.min_corner)
    return dict(zip(kept.tolist(), points))
