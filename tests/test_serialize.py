import numpy as np
import pytest

from jumprl.serialize import dump_csv


def test_header_first_and_closing_newline():
    assert dump_csv(("a", "b"), []) == "a,b\n"
    assert dump_csv(["episode", "loss"], [[0, None], [5, 0.5]]) == "episode,loss\n0,\n5,0.5\n"


@pytest.mark.parametrize("value", [0.1 + 0.2, 1e-300, -0.0, 5e-324, 1.7976931348623157e308,
                                   -2.5, 1.0])
def test_float_cell_round_trips(value):
    cell = dump_csv(("x",), [(value,)]).splitlines()[1]
    assert np.float64(float(cell)).tobytes() == np.float64(value).tobytes()


def test_numpy_scalars_render_as_python_ones():
    row = (np.float64(0.1 + 0.2), np.int64(-7), np.float64(-0.0), np.int64(2**62))
    assert dump_csv("abcd", [row]) == dump_csv("abcd", [[x.item() for x in row]])
    assert dump_csv("abcd", [row]) == "a,b,c,d\n0.30000000000000004,-7,-0,4611686018427387904\n"


def test_none_is_an_empty_cell():
    assert dump_csv(("a", "b", "c"), [(None, "2021-01-04", None)]) == "a,b,c\n,2021-01-04,\n"
