"""The CLI's CSV text against csv.writer, which it replaces."""

import csv
import io
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from zerocert.cli import _write_csv

_CELLS = {
    "f": st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                    0.1, 1e-300, 5e-324])),
    "b": st.booleans(),
    "i": st.integers(-2 ** 63, 2 ** 63 - 1),
    "s": st.one_of(st.text(max_size=8),
                   st.sampled_from(["", ",", '"', "a,b", 'say "hi"', "\r",
                                    "\n", "x\r\ny", " lead", '""', "nan"])),
}


def _reference(header, columns):
    # csv.writer on each column's cells, formatted as the CLI formats them
    def text(col):
        values = np.asarray(col)
        fmt = repr if values.dtype.kind == "f" else str
        return list(map(fmt, values.tolist()))

    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(header)
    w.writerows(zip(*map(text, columns)))
    return out.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(_CELLS)),
                                      min_size=1, max_size=5),
       rows=st.integers(0, 6))
@example(data=None, kinds=["s"], rows=3)
def test_write_csv_is_csv_writer_text(tmp_path_factory, data, kinds, rows):
    if data is None:
        # one column of empty cells: csv.writer quotes a record of one
        # empty cell
        header, columns = [""], [["", "", ","]]
    else:
        header = data.draw(st.lists(_CELLS["s"], min_size=len(kinds),
                                    max_size=len(kinds)))
        columns = [data.draw(st.lists(_CELLS[k], min_size=rows,
                                      max_size=rows)) for k in kinds]
        columns = [np.array(c, dtype={"f": float, "b": bool, "i": np.int64,
                                      "s": str}[k]) if c else c
                   for c, k in zip(columns, kinds)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    assert _write_csv(path, header, columns) == "out.csv"
    assert path.read_bytes() == _reference(header, columns)
