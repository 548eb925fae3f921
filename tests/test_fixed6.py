"""The vectorized six-decimal kernel against Python's own '%.6f'."""

import numpy as np
import pytest

from polydissect import PolygonSpec, RenderOptions, base_segments, build_graph, render_svg
from polydissect import split_all_fast
from polydissect.render import MAX_CANVAS, _fixed6, _rows


def reference(values):
    return [f"{v:.6f}".encode() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def assert_writes_like_python(values):
    got = _fixed6(values)
    assert got.shape == np.shape(values)
    assert got.ravel().tolist() == reference(values)


def test_random_canvas_values():
    rng = np.random.default_rng(11)
    assert_writes_like_python(rng.uniform(-5.0, 845.0, 200_000))
    assert_writes_like_python(rng.uniform(0.0, 1.0, 50_000) * 10.0 ** rng.integers(-7, 9, 50_000))


def test_exact_binary_ties_round_half_to_even():
    assert _fixed6([0.0078125, 0.0234375]).tolist() == [b"0.007812", b"0.023438"]
    # 2.5e-6 * 1e6 is 2.5 in floats, but the double 2.5e-6 is a hair above 2.5e-6
    assert _fixed6([2.5e-6]).tolist() == [b"0.000003"]
    rng = np.random.default_rng(12)
    j = rng.integers(7, 30, 100_000)
    k = rng.integers(0, 2 ** 40, 100_000)
    ties = np.ldexp(k.astype(np.float64), -j)
    assert_writes_like_python(ties[ties < 1e5])


def test_neighbours_of_half_units_round_by_the_exact_product():
    rng = np.random.default_rng(13)
    centre = np.round(rng.uniform(0.0, 5000.0, 50_000), 6)
    for half in (5e-7, -5e-7):
        near = centre + half
        assert_writes_like_python(np.concatenate(
            (near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf))))


def test_negative_zero_and_tiny_negatives_keep_their_sign():
    assert _fixed6([-0.0, -1e-9, 0.0, 1e-9, -0.5]).tolist() == [
        b"-0.000000", b"-0.000000", b"0.000000", b"0.000000", b"-0.500000"]


def test_integer_parts_of_one_to_five_digits_share_one_call():
    values = np.array([[7.25, -42.125, 123.456789], [12345.678901, -99999.5, 0.1]])
    assert_writes_like_python(values)
    assert _fixed6(values)[1, 0] == b"12345.678901"


def test_values_beyond_the_exact_range_are_refused():
    with pytest.raises(ValueError, match="six decimals"):
        _fixed6([1.0, 2.0 ** 52 / 1e6])
    with pytest.raises(ValueError, match="six decimals"):
        _fixed6([np.nan])


def test_a_canvas_beyond_the_exact_range_is_refused():
    RenderOptions(scale=MAX_CANVAS / 2.2)
    RenderOptions(scale=MAX_CANVAS, zoom=(0.0, 0.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="six decimals"):
        RenderOptions(scale=MAX_CANVAS / 2.0)  # the full window is 2.1 wide
    with pytest.raises(ValueError, match="six decimals"):
        RenderOptions(scale=2 * MAX_CANVAS, zoom=(0.0, 0.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="six decimals"):
        RenderOptions(stroke_width=MAX_CANVAS)


def test_rows_of_no_elements_are_empty():
    assert _rows(b'<text x="', np.empty(0, dtype="S9"), b'"/>\n') == b""
    assert _rows(b"<a>", np.array([b"1", b"22"]), b"</a>") == b"<a>1</a><a>22</a>"


def test_labels_outside_every_centroid_leave_no_text_group():
    split = split_all_fast(base_segments(PolygonSpec(3)))
    doc = render_svg(split, build_graph(split),
                     RenderOptions(label_orbits=True, zoom=(0.99, -0.001, 1.0, 0.001)))
    assert "<text" not in doc and "font-family" not in doc
