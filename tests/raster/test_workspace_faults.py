"""Fault budget: with a warm workspace, a rasterizer call maps no fresh page.

Every row-, block- and fragment-sized array of ``rasterize_triangles``
lives in its :class:`~repro.workspace.Workspace`. A second call
on the same input therefore writes only into pages the first call
already faulted in. Allocating those arrays per call or per block again
would fault in thousands of fresh pages per call (a fresh array is
zero-filled memory the kernel maps on first write), which this test
counts with ``ru_minflt`` in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.raster.batch import DEFAULT_BLOCK_FRAGMENTS, rasterize_triangles
from repro.workspace import Workspace

resource = pytest.importorskip("resource")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts minor page faults through getrusage, as Linux reports them",
)

#: Minor faults the warm call may take. Over 20 runs each (2-vCPU VM,
#: each run a fresh interpreter) the warm call took 0; the same code
#: allocating its block arrays per block took 9,892–9,987, and all its
#: arrays per call 4,495–4,496. The budget sits far from both.
FAULT_BUDGET = 256


def overlapping_triangles(n=400, width=320, height=240):
    """``n`` front-facing triangles scattered over the viewport."""
    rng = np.random.default_rng(5)
    centres = rng.uniform(0, 1, (n, 1, 2)) * [width, height]
    screen = centres + rng.uniform(-40, 40, (n, 3, 2))
    area2 = (screen[:, 1, 0] - screen[:, 0, 0]) * (
        screen[:, 2, 1] - screen[:, 0, 1]
    ) - (screen[:, 2, 0] - screen[:, 0, 0]) * (screen[:, 1, 1] - screen[:, 0, 1])
    back = area2 > 0
    screen[back] = screen[back][:, ::-1]
    return dict(
        screen_xy=screen,
        inv_w=rng.uniform(0.2, 1.0, (n, 3)),
        uv=rng.uniform(0.0, 4.0, (n, 3, 2)),
        z_ndc=rng.uniform(-1.0, 1.0, (n, 3)),
        width=width,
        height=height,
        tex_width=256,
        tex_height=256,
    )


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def warm_call_faults() -> int:
    """Minor faults of a second call on the same input and workspace."""
    kwargs = overlapping_triangles()
    ws = Workspace()
    first = rasterize_triangles(**kwargs, workspace=ws)
    n = len(first)
    assert n > 8 * DEFAULT_BLOCK_FRAGMENTS  # rows and blocks are many
    del first
    before = minor_faults()
    second = rasterize_triangles(**kwargs, workspace=ws)
    faults = minor_faults() - before
    assert len(second) == n
    return faults


def test_warm_workspace_call_faults_no_fresh_pages():
    # In a fresh interpreter: a long-lived process's allocator may
    # already hold enough freed pages to hide per-block allocation.
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    faults = int(out.split()[-1])
    assert faults < FAULT_BUDGET, f"{faults} minor faults on a warm call"


if __name__ == "__main__":
    print(warm_call_faults())
