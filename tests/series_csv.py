"""Series CSV fixtures, written through the package's block writer as the commands read them."""

from zpfdrive import _io
from zpfdrive.dynamics import _SERIES_COLUMNS


def write_series(series, target) -> None:
    """Write a FieldTimeSeries as CSV to a path or an open handle: a header of the columns it
    holds, then one line of shortest round-trip ``repr`` cells per sample."""
    header = [col for col, name in _SERIES_COLUMNS.items() if getattr(series, name) is not None]
    columns = [getattr(series, _SERIES_COLUMNS[col]) for col in header]
    _io.write_blocks(target, _io.csv_blocks(columns), head=",".join(header) + "\n")
