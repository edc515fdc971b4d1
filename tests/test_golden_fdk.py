"""Golden-volume regression tests: numerical drift fails loudly.

Two canonical reconstructions are checked into ``tests/data/`` as the
pinned outputs of the reference FDK pipeline:

* ``golden_fdk_32`` — the 32³ Shepp-Logan full-scan reconstruction (with
  seeded measurement noise) that has gated every PR since the backend
  seam landed;
* ``golden_shortscan_32`` — the same acquisition replayed through the
  ``short_scan`` scenario (π + 2Δ trajectory, Parker redundancy weights),
  pinning the scenario engine's arithmetic the same way.

Every future PR recomputes both and compares:

* **exact hash** — when the installed NumPy/SciPy versions match the ones
  recorded at generation time (the containers this repo is developed and
  gated in), the recomputed volume must be *bit-identical* to the golden
  one.  Any change to the reference arithmetic — an "innocent" reordering,
  a dtype slip, a changed FFT pad, a reweighted Parker table — trips this
  immediately.
* **RMSE bound** — regardless of library versions, the recomputed volume
  must stay within a tight relative RMSE of the golden one, so the test is
  still a meaningful drift detector on environments with different FFT
  builds (where bit-equality is not guaranteed).
* **backend bound** — the fast backends must also stay inside the
  conformance tolerance of the golden volumes, tying the backend family to
  a fixed ground truth, not just to each other.

On top of the pinned artefacts, a quality regression test reconstructs a
64³ phantom full-scan and short-scan and asserts the short scan's RMSE
against ground truth stays within 2× of the full scan's — the Parker
weighting must keep delivering usable images, not merely stable bits.

Regenerating the golden files (only after an *intentional* numerical
change): run this module as a script —
``PYTHONPATH=src python tests/test_golden_fdk.py`` — and commit the new
``.npz``/``.json`` pairs together with the change that motivated them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import BACKEND_NAMES
from repro.core import (
    EllipsoidPhantom,
    default_geometry_for_problem,
    forward_project_analytic,
    shepp_logan_3d,
    shepp_logan_ellipsoids,
)
from repro.core.types import ProjectionStack
from repro.scenarios import get_scenario
from repro.streaming import StreamingReconstructor

DATA_DIR = Path(__file__).parent / "data"

SEED = 20260729
NOISE_SIGMA = 1e-3

#: Version-independent drift bound (relative RMSE against the golden volume).
DRIFT_RMSE_TOL = 1e-6
#: Conformance bound for the non-reference backends against the golden volume.
BACKEND_RMSE_TOL = 1e-5

#: The two pinned reconstructions: family name -> data-file stem.
FAMILIES = {
    "full": "golden_fdk_32",
    "shortscan": "golden_shortscan_32",
}


def golden_geometry():
    return default_geometry_for_problem(nu=48, nv=48, np_=24, nx=32, ny=32, nz=32)


def golden_stack() -> ProjectionStack:
    """Deterministic Shepp-Logan projections with seeded Gaussian noise."""
    geometry = golden_geometry()
    stack = forward_project_analytic(
        EllipsoidPhantom(shepp_logan_ellipsoids()), geometry
    )
    rng = np.random.default_rng(SEED)
    return ProjectionStack(
        data=stack.data
        + rng.normal(0.0, NOISE_SIGMA, stack.data.shape).astype(np.float32),
        angles=stack.angles,
    )


def short_scan_volume(base, stack, backend) -> np.ndarray:
    """The ``short_scan`` scenario applied to a base acquisition, then FDK."""
    scenario = get_scenario("short_scan")
    geometry, scenario_stack = scenario.apply(base, stack)
    return StreamingReconstructor(
        geometry, backend=backend, scenario=scenario
    ).reconstruct_stack(scenario_stack).volume.data


def reconstruct(family: str, backend: str = "reference") -> np.ndarray:
    if family == "full":
        return (
            StreamingReconstructor(golden_geometry(), backend=backend)
            .reconstruct_stack(golden_stack())
            .volume.data
        )
    if family == "shortscan":
        return short_scan_volume(golden_geometry(), golden_stack(), backend)
    raise ValueError(f"unknown golden family {family!r}")


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return request.param


@pytest.fixture(scope="module")
def golden(family):
    stem = FAMILIES[family]
    volume = np.load(DATA_DIR / f"{stem}.npz")["volume"]
    meta = json.loads((DATA_DIR / f"{stem}.json").read_text())
    assert volume.shape == tuple(meta["shape"])
    assert str(volume.dtype) == meta["dtype"]
    # The stored artefact itself must match its recorded hash (catches a
    # corrupted or half-regenerated checkout before blaming the code).
    assert hashlib.sha256(volume.tobytes()).hexdigest() == meta["sha256"]
    return volume, meta


@pytest.fixture(scope="module")
def recomputed(family):
    return reconstruct(family, "reference")


def _environment_matches(meta: dict) -> bool:
    import scipy

    return meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def rel_rmse(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.abs(b).max()) or 1.0
    return float(np.sqrt(np.mean((a.astype(np.float64) - b) ** 2))) / scale


def test_golden_volume_exact_hash(family, golden, recomputed):
    volume, meta = golden
    if not _environment_matches(meta):
        pytest.skip(
            f"golden generated with numpy={meta['numpy']} scipy={meta['scipy']}; "
            "bit-exactness is only contractual on the pinned environment "
            "(the RMSE test below still guards drift here)"
        )
    digest = hashlib.sha256(recomputed.tobytes()).hexdigest()
    assert digest == meta["sha256"], (
        f"reference {family} FDK output changed bit-for-bit against the "
        f"golden volume (got {digest}); if the numerical change is "
        f"intentional, regenerate tests/data/{FAMILIES[family]}.* (see "
        "module docstring) and say so in the PR"
    )


def test_golden_volume_rmse(family, golden, recomputed):
    volume, _ = golden
    assert recomputed.shape == volume.shape
    drift = rel_rmse(recomputed, volume)
    assert drift <= DRIFT_RMSE_TOL, (
        f"reference {family} FDK output drifted from the golden volume "
        f"(relative RMSE {drift:.3e} > {DRIFT_RMSE_TOL:.0e})"
    )


@pytest.mark.parametrize(
    "backend", [n for n in BACKEND_NAMES if n != "reference"]
)
def test_backends_track_golden_volume(family, golden, backend):
    volume, _ = golden
    assert rel_rmse(reconstruct(family, backend), volume) <= BACKEND_RMSE_TOL


# --------------------------------------------------------------------------- #
# Quality regression: short-scan must stay close to full-scan fidelity
# --------------------------------------------------------------------------- #
@pytest.mark.scenario
def test_short_scan_rmse_within_2x_of_full_scan():
    """Parker-weighted short scan keeps RMSE within 2× of the full scan.

    Reconstructed at 64³ from clean analytic projections (the scale at
    which FDK is quantitatively accurate) so the bound measures the
    redundancy weighting, not the noise floor.
    """
    geometry = default_geometry_for_problem(
        nu=96, nv=96, np_=72, nx=64, ny=64, nz=64
    )
    stack = forward_project_analytic(
        EllipsoidPhantom(shepp_logan_ellipsoids()), geometry
    )
    truth = shepp_logan_3d(64, 64, 64).data
    scale = float(np.abs(truth).max())

    def rmse_vs_truth(volume: np.ndarray) -> float:
        return float(np.sqrt(np.mean((volume - truth) ** 2))) / scale

    full = StreamingReconstructor(geometry, backend="vectorized").reconstruct_stack(
        stack
    )
    short = short_scan_volume(geometry, stack, "vectorized")
    full_rmse = rmse_vs_truth(full.volume.data)
    short_rmse = rmse_vs_truth(short)
    assert short_rmse <= 2.0 * full_rmse, (
        f"short-scan RMSE {short_rmse:.4f} exceeds twice the full-scan "
        f"RMSE {full_rmse:.4f}"
    )


def _regenerate() -> None:  # pragma: no cover - manual tool
    import scipy

    for family, stem in FAMILIES.items():
        volume = reconstruct(family, "reference")
        digest = hashlib.sha256(volume.tobytes()).hexdigest()
        meta_path = DATA_DIR / f"{stem}.json"
        if meta_path.exists():
            if json.loads(meta_path.read_text())["sha256"] == digest:
                print(f"{stem}.npz unchanged ({digest}); not rewritten")
                continue
        DATA_DIR.mkdir(exist_ok=True)
        np.savez_compressed(DATA_DIR / f"{stem}.npz", volume=volume)
        meta = {
            "sha256": digest,
            "dtype": str(volume.dtype),
            "shape": list(volume.shape),
            "problem": "48x48x24->32x32x32",
            "scenario": "full_scan" if family == "full" else "short_scan",
            "seed": SEED,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        print(f"regenerated {stem}.npz ({digest})")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
