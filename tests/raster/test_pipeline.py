"""Integration tests for the rendering/tracing pipeline."""

import weakref

import numpy as np
import pytest

from repro.geometry.camera import Camera
from repro.geometry.mesh import MeshInstance
from repro.geometry.primitives import make_quad
from repro.geometry.transforms import translation
from repro.experiments import traces
from repro.experiments.config import Scale
from repro.experiments.traces import render_trace_stream
from repro.raster.parallel import render_stream_parallel
from repro.raster.pipeline import RenderOptions, Renderer
from repro.raster.rasterizer import RasterOrder
from repro.texture.manager import TextureManager
from repro.texture.procedural import checker_texture
from repro.texture.sampler import FilterMode
from repro.texture.texture import Texture
from repro.texture.tiling import unpack_tile_refs
from repro.trace.trace import TraceMeta


def simple_scene(with_images=False, two_quads=False):
    """A quad (or two, stacked in depth) facing the camera at the origin."""
    mgr = TextureManager()
    img = checker_texture(64) if with_images else None
    tid = mgr.load(Texture("checker", 64, 64, image=img))
    instances = [
        MeshInstance(make_quad(8.0, 8.0), translation(0, 0, 0), tid, name="front")
    ]
    if two_quads:
        img2 = checker_texture(64) if with_images else None
        tid2 = mgr.load(Texture("back", 64, 64, image=img2))
        instances.append(
            MeshInstance(
                make_quad(8.0, 8.0), translation(0, 0, -3.0), tid2, name="back"
            )
        )
    return instances, mgr


def camera():
    return Camera(eye=np.array([0.0, 0.0, 6.0]), target=np.zeros(3), near=0.5)


class TestBasicRender:
    def test_quad_produces_fragments(self):
        instances, mgr = simple_scene()
        r = Renderer(instances, mgr, RenderOptions(width=64, height=64,
                                                   filter_mode=FilterMode.POINT))
        out = r.render_frame(camera())
        assert out.trace.n_fragments > 500  # quad fills most of the view
        assert out.rasterized_triangles == 2

    def test_refs_are_bound_texture(self):
        instances, mgr = simple_scene()
        r = Renderer(instances, mgr, RenderOptions(width=32, height=32,
                                                   filter_mode=FilterMode.POINT))
        out = r.render_frame(camera())
        tids = np.unique(unpack_tile_refs(out.trace.refs).tid)
        assert tids.tolist() == [0]

    def test_texel_reads_match_filter(self):
        instances, mgr = simple_scene()
        for mode, per_frag in ((FilterMode.POINT, 1), (FilterMode.BILINEAR, 4),
                               (FilterMode.TRILINEAR, 8)):
            r = Renderer(instances, mgr, RenderOptions(width=32, height=32,
                                                       filter_mode=mode))
            out = r.render_frame(camera())
            assert out.trace.texel_reads == out.trace.n_fragments * per_frag

    def test_collapsed_stream_shorter_than_reads(self):
        instances, mgr = simple_scene()
        r = Renderer(instances, mgr, RenderOptions(width=64, height=64,
                                                   filter_mode=FilterMode.BILINEAR))
        out = r.render_frame(camera())
        assert len(out.trace.refs) < out.trace.texel_reads

    def test_dangling_texture_binding_raises(self):
        instances, mgr = simple_scene()
        instances[0].texture_id = 99
        with pytest.raises(IndexError):
            Renderer(instances, mgr)


class TestCulling:
    def test_instance_behind_camera_culled(self):
        instances, mgr = simple_scene()
        instances[0].model = translation(0, 0, 100)  # behind the camera
        r = Renderer(instances, mgr, RenderOptions(width=32, height=32))
        out = r.render_frame(camera())
        assert out.culled_instances == 1
        assert out.trace.n_fragments == 0

    def test_cull_disabled_still_correct(self):
        instances, mgr = simple_scene()
        instances[0].model = translation(0, 0, 100)
        r = Renderer(instances, mgr, RenderOptions(width=32, height=32, cull=False))
        out = r.render_frame(camera())
        # Pixel-level clipping still drops it: no fragments either way.
        assert out.trace.n_fragments == 0


class TestZBeforeTexture:
    def test_occluded_fragments_not_traced(self):
        instances, mgr = simple_scene(two_quads=True)
        base = Renderer(instances, mgr,
                        RenderOptions(width=32, height=32,
                                      filter_mode=FilterMode.POINT))
        zfirst = Renderer(instances, mgr,
                          RenderOptions(width=32, height=32,
                                        filter_mode=FilterMode.POINT,
                                        z_before_texture=True))
        cam = camera()
        out_base = base.render_frame(cam)
        out_z = zfirst.render_frame(cam)
        # The back quad projects entirely behind the front one, so z-first
        # leaves exactly the front quad's fragments.
        front_only = Renderer(
            instances[:1], mgr,
            RenderOptions(width=32, height=32, filter_mode=FilterMode.POINT),
        ).render_frame(cam)
        # (Up to a handful of shared-diagonal duplicates, which the z test
        # additionally filters in z-first mode.)
        assert (
            0
            <= front_only.trace.n_fragments - out_z.trace.n_fragments
            <= 8
        )
        assert out_base.trace.n_fragments > out_z.trace.n_fragments
        # The occluded back texture never appears in the z-first trace.
        tids = np.unique(unpack_tile_refs(out_z.trace.refs).tid)
        assert 1 not in tids.tolist()


class TestShading:
    def test_image_produced(self):
        instances, mgr = simple_scene(with_images=True)
        r = Renderer(instances, mgr,
                     RenderOptions(width=32, height=32, shade=True,
                                   filter_mode=FilterMode.BILINEAR))
        out = r.render_frame(camera())
        assert out.image is not None
        assert out.image.shape == (32, 32, 3)
        # The checker must produce both dark and light pixels on screen.
        assert out.image.max() > 150
        assert out.image.min() < 80

    def test_occlusion_resolved_in_image(self):
        instances, mgr = simple_scene(with_images=True, two_quads=True)
        # Make the back texture solid white to detect bleed-through.
        mgr.textures[1].image[:] = 255
        mgr.textures[1]._pyramid = None
        r = Renderer(instances, mgr,
                     RenderOptions(width=32, height=32, shade=True,
                                   filter_mode=FilterMode.POINT))
        out = r.render_frame(camera())
        # Center pixel shows the front checker, not the white back quad.
        center = out.image[16, 16]
        assert not np.all(center == 255)

    def test_iter_frames_yields_frames(self):
        instances, mgr = simple_scene()
        r = Renderer(instances, mgr, RenderOptions(width=16, height=16))
        outs = list(r.iter_frames([camera(), camera()]))
        assert len(outs) == 2


class TestTiledOrder:
    def test_tiled_and_scanline_same_fragments(self):
        instances, mgr = simple_scene()
        scan = Renderer(instances, mgr,
                        RenderOptions(width=32, height=32,
                                      filter_mode=FilterMode.POINT))
        tiled = Renderer(instances, mgr,
                         RenderOptions(width=32, height=32,
                                       filter_mode=FilterMode.POINT,
                                       order=RasterOrder.TILED))
        cam = camera()
        a = scan.render_frame(cam).trace
        b = tiled.render_frame(cam).trace
        assert a.n_fragments == b.n_fragments
        # Same set of tiles, possibly different order.
        assert np.array_equal(np.unique(a.refs), np.unique(b.refs))


def watch_frames(monkeypatch):
    """Count, as each ``render_frame`` starts, the earlier traces alive."""
    live: list[int] = []
    refs: list[weakref.ref] = []
    render = Renderer.render_frame

    def watching(self, cam):
        live.append(sum(r() is not None for r in refs))
        out = render(self, cam)
        refs.append(weakref.ref(out.trace))
        return out

    monkeypatch.setattr(Renderer, "render_frame", watching)
    return live


class _Sink:
    def __init__(self):
        self.n_fragments: list[int] = []

    def append_frame(self, frame):
        self.n_fragments.append(frame.n_fragments)


class TestWriteFrames:
    def test_previous_frame_dead_when_next_renders(self, monkeypatch):
        instances, mgr = simple_scene(two_quads=True)
        r = Renderer(instances, mgr, RenderOptions(width=32, height=32))
        live = watch_frames(monkeypatch)
        sink = _Sink()
        r.write_frames([camera()] * 3, sink)
        assert len(sink.n_fragments) == 3 and min(sink.n_fragments) > 0
        assert live == [0, 0, 0]

    def test_iter_frames_loop_holds_previous_frame(self, monkeypatch):
        # The pattern write_frames replaces: the loop variable keeps the
        # previous frame alive while the next one renders.
        instances, mgr = simple_scene(two_quads=True)
        r = Renderer(instances, mgr, RenderOptions(width=32, height=32))
        live = watch_frames(monkeypatch)
        sink = _Sink()
        for out in r.iter_frames([camera()] * 3):
            sink.append_frame(out.trace)
        assert live == [0, 1, 1]

    def test_stream_renders_hold_one_frame(self, monkeypatch, tmp_path):
        scale = Scale(width=48, height=36, frames=3, detail=0.2, name="micro")
        live = watch_frames(monkeypatch)
        trace = render_trace_stream(
            "city", scale, FilterMode.POINT, tmp_path / "a.stream", workers=1
        )
        assert len(trace.frames) == 3
        assert live == [0, 0, 0]
        # The serial path of the parallel renderer.
        live.clear()
        meta = TraceMeta("city", 48, 36, FilterMode.POINT.value, 3)
        render_stream_parallel(
            traces._renderer_factory,
            ("city", scale, FilterMode.POINT, False, False),
            meta,
            tmp_path / "b.stream",
            jobs=1,
        )
        assert live == [0, 0, 0]
