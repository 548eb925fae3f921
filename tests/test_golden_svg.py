"""Pinned SHA-256 digests of rendered figures.

Seven digests were taken from the renderer before the full route moved
to numpy arrays, faces-24 from the renderer before numbers were written
by the vectorized kernel, faces-zoom-24 from the renderer that clipped one
face at a time, and faces-zoom-8 and faces-zoom-12 from the last renderer
that could also write orbit labels; any change to the bytes of a figure
(coordinates, element order, fills) fails here.
"""

import hashlib

import pytest

from polydissect import (
    PolygonSpec,
    RenderOptions,
    base_segments,
    build_graph,
    render_svg,
    split_all_fast,
)
from polydissect import render
from polydissect.cli import main

GOLDEN = {
    "faces-4": (4, True, RenderOptions(),
                "155de1e3b80bbd651bae209d8f795a80143a843cc821a7211b7ccca10fa6ccd9"),
    "faces-6": (6, True, RenderOptions(),
                "3010b1e4477ab71dd62083fb1690bae64157a104441a1002c0c77f0b71b585f6"),
    "faces-10": (10, True, RenderOptions(),
                 "32be2b26b6b2da446620348c1b20523cc033c01d2101ba5407bf14561b30c2f9"),
    "faces-20": (20, True, RenderOptions(),
                 "dba75ee8efcf429fb2854ef0aee957797406f9c19b12d379c851117912ad1871"),
    "plain-5": (5, False, RenderOptions(),
                "d18a14ed8d6bcd76ae51d329e43b274a872ff2613afd0669e379106f6b01b853"),
    "zoom-10": (10, False, RenderOptions(zoom=(0.55, -0.25, 1.05, 0.25)),
                "07c336e1e6ce5d5e59393e5162b3986504c9d3e743f1090343f811080e4ffe95"),
    "faces-zoom-10": (10, True, RenderOptions(zoom=(0.55, -0.25, 1.05, 0.25)),
                      "af5767b6da9d1c2dcda14b469850f716ab7c860f7db8dc0f5dcc766d0596b2a3"),
    "faces-zoom-8": (8, True, RenderOptions(zoom=(-0.2, -0.2, 0.6, 0.5), scale=250.0),
                     "36c0bf437eb7aba3f2da335e6a525f36a0e78706036559e70a158c6f01a87ce1"),
    # 49,105 polygons and 97,728 lines
    "faces-24": (24, True, RenderOptions(),
                 "5eebd632a5f55a604236c2d0a53fa66a72929ed4ac0a981efd16d6ebfdd2ef8e"),
    # a 2125 x 1875 canvas: 4-digit coordinates in points and lines
    "faces-zoom-12": (12, True, RenderOptions(zoom=(-0.3, -0.35, 0.55, 0.4), scale=2500.0),
                      "1b63114a8405a5df6293c3d61c34d6d9eb7cd68f54256db609651dde5b7ea848"),
    # a window that cuts faces on all four sides: 12,454 polygons and 24,640 lines
    "faces-zoom-24": (24, True, RenderOptions(zoom=(-0.5, -0.4, 0.7, 0.45)),
                      "1b00e846135b8343c691abd97e15ed8da5a8cbc05f4c0287e56ac577c08866ac"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_render_svg_bytes_are_pinned(case):
    n, faces, opts, digest = GOLDEN[case]
    split = split_all_fast(base_segments(PolygonSpec(n)))
    graph = build_graph(split) if faces else None
    assert sha256(render_svg(split, graph, opts)) == digest


@pytest.mark.parametrize("case", ["faces-10", "zoom-10", "faces-zoom-10"])
def test_cli_render_writes_the_pinned_bytes(case, tmp_path):
    n, faces, opts, digest = GOLDEN[case]
    out = tmp_path / f"{case}.svg"
    argv = ["render", "--n", str(n), "--out", str(out)]
    if faces:
        argv.append("--faces")
    if opts.zoom is not None:
        argv.append("--zoom=" + ",".join(str(v) for v in opts.zoom))
    assert main(argv) == 0
    assert sha256(out.read_text(encoding="utf-8")) == digest


@pytest.fixture(scope="module")
def figures():
    """The split and graph of each (n, faces), built once."""
    built = {}
    for n, faces, _, _ in GOLDEN.values():
        if (n, faces) not in built:
            split = split_all_fast(base_segments(PolygonSpec(n)))
            built[n, faces] = split, build_graph(split) if faces else None
    return built


# BLOCK = 8 formats two faces (or eight lines) a pass, so every second face
# opens its block with the fill carried from the block before
@pytest.mark.parametrize("block", [8, 64])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_block_size_does_not_change_the_bytes(case, block, figures, monkeypatch):
    n, faces, opts, digest = GOLDEN[case]
    monkeypatch.setattr(render, "BLOCK", block)
    assert sha256(render_svg(*figures[n, faces], opts)) == digest


@pytest.mark.parametrize("block", [8, 64])
def test_block_size_does_not_change_a_zoomed_tile_render(block, monkeypatch):
    split = split_all_fast(base_segments(PolygonSpec(14)))
    graph = build_graph(split)
    opts = RenderOptions(zoom=(-0.65, -0.1, 0.35, 0.8), scale=90.0)
    expected = sha256(render_svg(split, graph, opts))
    monkeypatch.setattr(render, "BLOCK", block)
    assert sha256(render_svg(split, graph, opts)) == expected
