"""Block invariance of the renderer's reference emission.

``Renderer.render_frame`` cuts a frame's fragments, in emission order,
into blocks of ``pipeline.FRAGMENT_BLOCK``, samples each block's
footprints with one call per texture binding (secondary textures
interleaved column-wise) and collapses each instance's piece straight
into the frame's arrays. A piece that continues an instance cut by a
block edge folds its first run into that instance's last run when they
match; runs never merge across instances. So any block size must emit
the same trace as the default, whose blocks hold these frames whole.

The frame's triangles are rasterized in groups of at most
``pipeline.GROUP_PIXELS`` bounding-box pixels, each group emitted before
the next is rasterized, and an instance cut by a group edge continues
exactly as across a block edge. So any group budget must give the same
frame as the default, which holds these frames in one group.
"""

import numpy as np
import pytest

from repro.geometry.mesh import MeshInstance
from repro.geometry.primitives import make_quad
from repro.geometry.transforms import translation
from repro.raster import pipeline
from repro.raster.pipeline import RenderOptions, Renderer
from repro.raster.rasterizer import RasterOrder
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.manager import TextureManager
from repro.texture.sampler import FilterMode
from repro.texture.texture import Texture

from tests.oracle import ReferenceRenderer
from tests.raster.test_pipeline import camera, simple_scene

BLOCKS = (1, 7, 64)

#: Group budgets in pixels: one triangle per group, and a few per group.
GROUPS = (1, 1500)


def render(instances, mgr, options, cams):
    return [out.trace for out in render_outputs(instances, mgr, options, cams)]


def render_outputs(instances, mgr, options, cams):
    return list(Renderer(instances, mgr, options).iter_frames(cams))


def assert_traces_equal(got, want, label):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.refs, w.refs, err_msg=label)
        np.testing.assert_array_equal(g.weights, w.weights, err_msg=label)
        np.testing.assert_array_equal(
            g.object_offsets, w.object_offsets, err_msg=label
        )
        assert g.n_fragments == w.n_fragments, label


def count_block_runs(monkeypatch):
    """Record how many runs each block's collapse emits, before any fold."""
    runs: list[int] = []
    collapse = pipeline.collapse_runs

    def counting(refs, **kwargs):
        result = collapse(refs, **kwargs)
        runs.append(len(result[0]))
        return result

    monkeypatch.setattr(pipeline, "collapse_runs", counting)
    return runs


def assert_block_invariant(instances, mgr, options, cams, monkeypatch) -> int:
    """Check every block size against the default.

    Returns how many runs crossed a block boundary (and were folded) at
    one fragment per block.
    """
    want = render(instances, mgr, options, cams)
    stream_len = sum(len(t.refs) for t in want)
    assert stream_len > 0
    runs = count_block_runs(monkeypatch)
    for block in BLOCKS:
        monkeypatch.setattr(pipeline, "FRAGMENT_BLOCK", block)
        runs.clear()
        got = render(instances, mgr, options, cams)
        assert_traces_equal(got, want, f"FRAGMENT_BLOCK={block}")
        if block == 1:
            folds = sum(runs) - stream_len
    return folds


@pytest.mark.parametrize("mode", list(FilterMode))
def test_filter_modes(mode, monkeypatch):
    instances, mgr = simple_scene(two_quads=True)
    opts = RenderOptions(width=32, height=32, filter_mode=mode)
    folds = assert_block_invariant(instances, mgr, opts, [camera()], monkeypatch)
    if mode is not FilterMode.TRILINEAR:
        # Neighbouring fragments share a tile, so runs span fragments and
        # cross one-fragment blocks. (A trilinear footprint ends on the
        # coarser level and the next one starts on the finer, so its runs
        # end with the fragment.)
        assert folds > 0


@pytest.mark.parametrize(
    "options",
    [
        RenderOptions(
            width=32, height=32, z_before_texture=True,
            filter_mode=FilterMode.TRILINEAR,
        ),
        RenderOptions(width=32, height=32, order=RasterOrder.TILED),
    ],
    ids=["z_before_texture", "tiled"],
)
def test_pipeline_options(options, monkeypatch):
    instances, mgr = simple_scene(two_quads=True)
    assert_block_invariant(instances, mgr, options, [camera()], monkeypatch)


def test_shade(monkeypatch):
    instances, mgr = simple_scene(with_images=True, two_quads=True)
    opts = RenderOptions(width=32, height=32, shade=True)
    want_image = Renderer(instances, mgr, opts).render_frame(camera()).image
    assert_block_invariant(instances, mgr, opts, [camera()], monkeypatch)
    monkeypatch.setattr(pipeline, "FRAGMENT_BLOCK", 7)
    got_image = Renderer(instances, mgr, opts).render_frame(camera()).image
    np.testing.assert_array_equal(got_image, want_image)


def test_village_with_lightmaps(monkeypatch):
    wl = WORKLOAD_BUILDERS["village-mt"](detail=0.25)
    instances = wl.scene.instances
    assert any(inst.secondary_texture_id is not None for inst in instances)
    opts = RenderOptions(width=48, height=36, filter_mode=FilterMode.TRILINEAR)
    cams = wl.cameras(1)
    # The default interleaves the lightmaps' footprints as the oracle does.
    oracle = ReferenceRenderer(instances, wl.scene.manager, opts)
    assert_traces_equal(
        render(instances, wl.scene.manager, opts, cams),
        [out.trace for out in oracle.iter_frames(cams)],
        "oracle",
    )
    assert_block_invariant(instances, wl.scene.manager, opts, cams, monkeypatch)


def same_texture_pair():
    """Two consecutive quads bound to one 4x4 texture.

    Magnified, every fragment reads the texture's one level-0 tile, so each
    instance collapses to a single run and the boundary refs are equal.
    """
    mgr = TextureManager()
    tid = mgr.load(Texture("one-tile", 4, 4))
    instances = [
        MeshInstance(make_quad(8.0, 8.0), translation(0, 0, z), tid)
        for z in (0.0, -3.0)
    ]
    return instances, mgr


@pytest.mark.parametrize("block", (None,) + BLOCKS)
def test_runs_never_merge_across_instances(block, monkeypatch):
    instances, mgr = same_texture_pair()
    opts = RenderOptions(width=32, height=32, filter_mode=FilterMode.BILINEAR)
    (want,) = [
        out.trace
        for out in ReferenceRenderer(instances, mgr, opts).iter_frames([camera()])
    ]
    np.testing.assert_array_equal(want.object_offsets, [0, 1])
    assert want.refs[0] == want.refs[1]
    if block is not None:
        monkeypatch.setattr(pipeline, "FRAGMENT_BLOCK", block)
    (got,) = render(instances, mgr, opts, [camera()])
    assert_traces_equal([got], [want], f"FRAGMENT_BLOCK={block}")


def count_group_fragments(monkeypatch):
    """Record the fragments of every ``pipeline.rasterize_triangles`` call."""
    calls: list[int] = []
    rasterize = pipeline.rasterize_triangles

    def counting(**kwargs):
        batch = rasterize(**kwargs)
        calls.append(len(batch))
        return batch

    monkeypatch.setattr(pipeline, "rasterize_triangles", counting)
    return calls


def assert_group_invariant(instances, mgr, options, cams, monkeypatch):
    """Check every group budget against the default, images included.

    Returns the fragments of each rasterizer call at one pixel per group.
    """
    want = render_outputs(instances, mgr, options, cams)
    assert sum(len(out.trace.refs) for out in want) > 0
    calls = count_group_fragments(monkeypatch)
    for budget in GROUPS:
        monkeypatch.setattr(pipeline, "GROUP_PIXELS", budget)
        calls.clear()
        got = render_outputs(instances, mgr, options, cams)
        label = f"GROUP_PIXELS={budget}"
        assert_traces_equal(
            [out.trace for out in got], [out.trace for out in want], label
        )
        for g, w in zip(got, want):
            assert g.rasterized_triangles == w.rasterized_triangles, label
            assert g.culled_instances == w.culled_instances, label
            if w.image is None:
                assert g.image is None, label
            else:
                np.testing.assert_array_equal(g.image, w.image, err_msg=label)
        if budget == 1:
            one_px = list(calls)
    return one_px


@pytest.mark.parametrize("mode", list(FilterMode))
def test_groups_filter_modes(mode, monkeypatch):
    instances, mgr = simple_scene(two_quads=True)
    opts = RenderOptions(width=32, height=32, filter_mode=mode)
    (want,) = render_outputs(instances, mgr, opts, [camera()])
    calls = assert_group_invariant(instances, mgr, opts, [camera()], monkeypatch)
    # One call per triangle, whose fragments add up to the frame's.
    assert len(calls) == 4
    assert sum(calls) == want.trace.n_fragments


@pytest.mark.parametrize(
    "options",
    [
        RenderOptions(
            width=32, height=32, z_before_texture=True,
            filter_mode=FilterMode.TRILINEAR,
        ),
        RenderOptions(width=32, height=32, shade=True),
        RenderOptions(width=32, height=32, order=RasterOrder.TILED),
    ],
    ids=["z_before_texture", "shade", "tiled"],
)
def test_groups_pipeline_options(options, monkeypatch):
    instances, mgr = simple_scene(with_images=options.shade, two_quads=True)
    assert_group_invariant(instances, mgr, options, [camera()], monkeypatch)


@pytest.mark.parametrize("z_first", [False, True], ids=["textured", "z_first"])
def test_groups_village_with_lightmaps(z_first, monkeypatch):
    wl = WORKLOAD_BUILDERS["village-mt"](detail=0.25)
    opts = RenderOptions(
        width=48, height=36, filter_mode=FilterMode.TRILINEAR,
        z_before_texture=z_first,
    )
    cams = wl.cameras(1)
    (want,) = render_outputs(wl.scene.instances, wl.scene.manager, opts, cams)
    calls = assert_group_invariant(
        wl.scene.instances, wl.scene.manager, opts, cams, monkeypatch
    )
    assert len(calls) > 1
    if z_first:
        # Fragments are counted after the depth test.
        assert sum(calls) > want.trace.n_fragments
    else:
        assert sum(calls) == want.trace.n_fragments


def hidden_then_visible():
    """A front quad, then an instance whose first quad it hides entirely.

    Under ``z_before_texture`` the second instance's first triangles
    rasterize but emit nothing; its sub-stream starts at its second quad.
    """
    mgr = TextureManager()
    front = mgr.load(Texture("front", 64, 64))
    back = mgr.load(Texture("back", 64, 64))
    hidden = make_quad(2.0, 2.0)
    beside = make_quad(2.0, 2.0)
    beside.positions[:, 0] += 3.0
    instances = [
        MeshInstance(make_quad(4.0, 4.0), translation(0, 0, 0), front),
        MeshInstance(hidden.merged_with(beside), translation(0, 0, -3.0), back),
    ]
    return instances, mgr


def test_groups_z_first_offsets_at_first_emitted_piece(monkeypatch):
    instances, mgr = hidden_then_visible()
    opts = RenderOptions(width=32, height=32, z_before_texture=True)
    (want,) = [
        out.trace
        for out in ReferenceRenderer(instances, mgr, opts).iter_frames([camera()])
    ]
    assert len(want.object_offsets) == 2
    calls = count_group_fragments(monkeypatch)
    monkeypatch.setattr(pipeline, "GROUP_PIXELS", 1)
    (got,) = render(instances, mgr, opts, [camera()])
    assert_traces_equal([got], [want], "GROUP_PIXELS=1")
    # The hidden quad's triangles rasterized fragments in groups of
    # their own, and every one of them failed the depth test.
    assert len(calls) == 6
    assert all(calls)
    assert sum(calls) > got.n_fragments
