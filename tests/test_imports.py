"""What a process imports: SciPy's pocketfft extension on its first filter,
``scipy.ndimage`` on its first interpolation, and ``repro``'s subpackages on
first touch.

Every case runs in a fresh interpreter, since this process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter with this tree first on the
    path; return its stdout."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.mark.parametrize("module", ["repro", "repro.service", "repro.cli"])
def test_import_loads_no_scipy(module):
    out = run_fresh(f"""
        import sys
        import {module}
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_constructing_a_service_loads_no_scipy():
    """It builds a backend to read its name; the transforms stay unloaded."""
    out = run_fresh("""
        import sys
        from repro.service import ReconstructionService
        ReconstructionService(backend="vectorized")
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_every_export_resolves_through_getattr():
    out = run_fresh("""
        import repro
        print(all(getattr(repro, name) is not None for name in repro.__all__))
    """)
    assert out.strip() == "True"


def test_every_export_resolves_through_star_import():
    out = run_fresh("""
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        print(sorted(set(repro.__all__) - set(namespace)))
        print(namespace["Session"] is repro.api.Session, namespace["core"] is repro.core)
    """)
    assert out.split("\n")[:2] == ["[]", "True True"]


def test_dir_lists_every_export_before_it_is_loaded():
    out = run_fresh("""
        import sys
        import repro
        print(sorted(set(repro.__all__) - set(dir(repro))))
        print("repro.service" in sys.modules)
    """)
    assert out.split("\n")[:2] == ["[]", "False"]


def test_unknown_attribute_raises_attribute_error():
    out = run_fresh("""
        import repro
        try:
            repro.no_such_subpackage
        except AttributeError as error:
            print(error)
    """)
    assert out.strip() == "module 'repro' has no attribute 'no_such_subpackage'"


def test_the_first_vectorized_run_loads_the_pocketfft_extension_alone():
    """The guards above cannot pass vacuously: a filter does load SciPy's
    compiled pocketfft, and neither ``scipy.fft`` nor ``scipy.special`` (nor
    ``numpy.fft``, whose frequency grid the ramp tables compute themselves)."""
    out = run_fresh("""
        import sys
        import numpy as np
        from repro import Session
        from repro.api import plan_for_problem
        from repro.core import ProjectionStack
        from repro.core.filtering import PYPOCKETFFT

        plan = plan_for_problem("24x24x12->16x16x16", backend="vectorized")
        g = plan.geometry
        data = np.random.default_rng(0).random((g.np_, g.nv, g.nu), dtype=np.float32)
        before = PYPOCKETFFT in sys.modules
        with Session(plan) as session:
            session.run(ProjectionStack(data=data, angles=g.angles))
        print(before, PYPOCKETFFT in sys.modules)
        print(sorted(name for name in sys.modules
                     if name in ("scipy.fft", "scipy.special", "numpy.fft")))
    """)
    assert out.split("\n")[:2] == ["False True", "[]"]


#: A process's first reconstruction, run twice: cold (the transforms are
#: first resolved by threads filtering at once) and then warm.
FIRST_USE = """
    import hashlib, json
    import numpy as np
    from repro.api import Session, plan_for_problem
    from repro.core import ProjectionStack
    from repro.core.filtering import _pocketfft

    plan = plan_for_problem("48x48x24->32x32x32", **{fields})
    g = plan.geometry
    data = np.random.default_rng(7).random((g.np_, g.nv, g.nu), dtype=np.float32)
    stack = ProjectionStack(data=data, angles=g.angles)
    cold = _pocketfft.cache_info().currsize == 0
    digests = []
    for _ in range(2):
        with Session(plan) as session:
            volume = session.run(stack).volume.data
        digests.append(hashlib.sha256(np.ascontiguousarray(volume).tobytes()).hexdigest())
    print(json.dumps({{"cold": cold, "digests": digests}}))
"""


@pytest.mark.parallel
@pytest.mark.parametrize("fields", [
    # Four rank threads filter their first step at once.
    dict(target="ifdk", rows=2, columns=2),
    # The pool's threads filter the first chunk at once.
    dict(backend="parallel", streaming=True, chunk_size=6),
], ids=["ifdk_grid_2x2", "parallel_streaming"])
def test_first_use_under_threads_gives_the_warm_bits(fields):
    out = json.loads(run_fresh(FIRST_USE.format(fields=fields)))
    assert out["cold"]
    cold, warm = out["digests"]
    assert cold == warm


def test_a_lazy_name_is_the_object_it_names():
    assert repro.service is sys.modules["repro.service"]
    assert repro.Session is repro.api.Session
