"""Pinned SHA-256 digests of rendered figures.

The first nine digests were taken from the renderer before the full
route moved to numpy arrays, faces-24 and faces-labels-zoom-12 from the
renderer before numbers were written by the vectorized kernel; any change
to the bytes of a figure (coordinates, element order, fills, labels)
fails here.
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
from polydissect.cli import main

FACES = RenderOptions(color_faces=True)

GOLDEN = {
    "faces-4": (4, FACES, "155de1e3b80bbd651bae209d8f795a80143a843cc821a7211b7ccca10fa6ccd9"),
    "faces-6": (6, FACES, "3010b1e4477ab71dd62083fb1690bae64157a104441a1002c0c77f0b71b585f6"),
    "faces-10": (10, FACES, "32be2b26b6b2da446620348c1b20523cc033c01d2101ba5407bf14561b30c2f9"),
    "faces-20": (20, FACES, "dba75ee8efcf429fb2854ef0aee957797406f9c19b12d379c851117912ad1871"),
    "plain-5": (5, RenderOptions(),
                "d18a14ed8d6bcd76ae51d329e43b274a872ff2613afd0669e379106f6b01b853"),
    "zoom-10": (10, RenderOptions(zoom=(0.55, -0.25, 1.05, 0.25)),
                "07c336e1e6ce5d5e59393e5162b3986504c9d3e743f1090343f811080e4ffe95"),
    "labels-6": (6, RenderOptions(label_orbits=True),
                 "a808c8d9276f909a1664b27f8131ec1da49ccb3d0ac1787271e61fbb601cc626"),
    "faces-zoom-10": (10, RenderOptions(color_faces=True, zoom=(0.55, -0.25, 1.05, 0.25)),
                      "af5767b6da9d1c2dcda14b469850f716ab7c860f7db8dc0f5dcc766d0596b2a3"),
    "faces-labels-zoom-8": (8, RenderOptions(color_faces=True, label_orbits=True,
                                             zoom=(-0.2, -0.2, 0.6, 0.5), scale=250.0),
                            "b4e58574983df0669e87d31c71e7758efbf9e966c407e6c9bcc4b51aaff468ab"),
    # 49,105 polygons and 97,728 lines
    "faces-24": (24, FACES, "5eebd632a5f55a604236c2d0a53fa66a72929ed4ac0a981efd16d6ebfdd2ef8e"),
    # a 2125 x 1875 canvas: 4-digit coordinates in points, lines and labels
    "faces-labels-zoom-12": (12, RenderOptions(color_faces=True, label_orbits=True,
                                              zoom=(-0.3, -0.35, 0.55, 0.4), scale=2500.0),
                             "434f9db3db289268e2f5c4cdfb90fc5def538b1de3bc5a0404f5c0efe0cdabf4"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_render_svg_bytes_are_pinned(case):
    n, opts, digest = GOLDEN[case]
    split = split_all_fast(base_segments(PolygonSpec(n)))
    graph = build_graph(split) if opts.color_faces or opts.label_orbits else None
    assert sha256(render_svg(split, graph, opts)) == digest


@pytest.mark.parametrize("case", ["faces-10", "zoom-10", "faces-zoom-10"])
def test_cli_render_writes_the_pinned_bytes(case, tmp_path):
    n, opts, digest = GOLDEN[case]
    out = tmp_path / f"{case}.svg"
    argv = ["render", "--n", str(n), "--out", str(out)]
    if opts.color_faces:
        argv.append("--faces")
    if opts.zoom is not None:
        argv.append("--zoom=" + ",".join(str(v) for v in opts.zoom))
    assert main(argv) == 0
    assert sha256(out.read_text(encoding="utf-8")) == digest
