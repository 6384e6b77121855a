"""Labelled grids as CSV: the one writer of the truth, map and profile CSVs.

Run as a script, ``python -I -S gridcsv.py``, this module is a helper
process that writes grids it reads from its standard input, each with the
same ``write_grid_csv``, until the input ends. It imports nothing outside
the standard library, so the helper starts without numpy or the package.

``send_grid`` puts a grid on a helper's input as one pickle of
``write_grid_csv``'s arguments. A file the helper cannot write, or an
input that ends partway through a grid, ends it with one line of message
on its standard error and exit status 1.
"""
from __future__ import annotations

import pickle
import sys
from typing import BinaryIO, Sequence


def write_grid_csv(path, corner: str, column_labels: Sequence,
                   row_labels: Sequence[float],
                   rows: Sequence[Sequence[float]]) -> None:
    """Labelled grid as CSV, one CRLF-ended row per row label. ``str`` of a
    Python float is its ``repr``, so every number parses back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, (corner, *column_labels))) + "\r\n")
        for label, row in zip(row_labels, rows):
            fh.write(",".join(map(str, (label, *row))) + "\r\n")


def send_grid(stream: BinaryIO, *grid) -> None:
    """Write ``write_grid_csv``'s arguments to a helper's input and flush
    it."""
    pickle.dump(grid, stream, protocol=pickle.HIGHEST_PROTOCOL)
    stream.flush()


def main() -> None:
    stream = sys.stdin.buffer
    try:
        while stream.peek(1):  # empty only where the input ends
            write_grid_csv(*pickle.load(stream))
    except OSError as exc:
        sys.exit(str(exc))
    except (EOFError, pickle.UnpicklingError):
        sys.exit("grid input ended partway through a grid")


if __name__ == "__main__":
    main()
