"""The vectorized six-decimal kernel against Python's own '%.6f'."""

import numpy as np
import pytest

from polydissect import RenderOptions
from polydissect.render import MAX_CANVAS, _fixed6, _rows


def reference(values):
    return [f"{v:.6f}".encode() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def text(got):
    """The texts of a _fixed6 array, with the NUL padding on their left dropped."""
    return [v.lstrip(b"\0") for v in got.ravel().tolist()]


def assert_writes_like_python(values):
    got = _fixed6(values)
    assert got.shape == np.shape(values)
    assert text(got) == reference(values)
    # right-aligned in one width: NULs pad the left and nowhere else
    assert all(b"\0" not in v.lstrip(b"\0") for v in got.ravel().tolist())


def test_random_canvas_values():
    rng = np.random.default_rng(11)
    assert_writes_like_python(rng.uniform(-5.0, 845.0, 200_000))
    assert_writes_like_python(rng.uniform(0.0, 1.0, 50_000) * 10.0 ** rng.integers(-7, 9, 50_000))


def test_exact_binary_ties_round_half_to_even():
    assert text(_fixed6([0.0078125, 0.0234375])) == [b"0.007812", b"0.023438"]
    # 2.5e-6 * 1e6 is 2.5 in floats, but the double 2.5e-6 is a hair above 2.5e-6
    assert text(_fixed6([2.5e-6])) == [b"0.000003"]
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
    assert text(_fixed6([-0.0, -1e-9, 0.0, 1e-9, -0.5])) == [
        b"-0.000000", b"-0.000000", b"0.000000", b"0.000000", b"-0.500000"]


def test_integer_parts_of_one_to_five_digits_share_one_call():
    values = np.array([[7.25, -42.125, 123.456789], [12345.678901, -99999.5, 0.1]])
    assert_writes_like_python(values)
    # one width for all: a sign column and five digits left of the point
    assert _fixed6(values)[1, 0] == b"\0" b"12345.678901"
    assert _fixed6(values)[1, 1] == b"-99999.500000"
    assert _fixed6(values)[0, 0] == b"\0\0\0\0\0" b"7.250000"


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


def test_rows_of_no_elements_are_empty():
    assert _rows(b'<text x="', np.empty(0, dtype="S9"), b'"/>\n') == ""
    assert _rows(b"<a>", np.array([b"1", b"22"]), b"</a>") == "<a>1</a><a>22</a>"


def test_rows_drop_the_nul_padding_left_of_each_column():
    x = _fixed6([7.25, -42.125, 12345.5])
    y = np.array([b"\0\0a", b"\0bb", b"ccc"])
    assert _rows(b"<p x=", x, b" y=", y, b"/>") == (
        "<p x=7.250000 y=a/><p x=-42.125000 y=bb/><p x=12345.500000 y=ccc/>")
