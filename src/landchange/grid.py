"""Core raster types and file I/O.

Grids are single-band float64 rasters with square cells. Row 0 is the
northernmost row. Cells holding exactly ``nodata_value`` are missing.
Instances are immutable: the backing array is marked read-only, so grids
can be shared freely between threads; every operation returns new grids.

The on-disk format is a plain-text grid: six header lines (NCOLS, NROWS,
XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE, any case, any order) followed
by NROWS lines of NCOLS whitespace-separated decimal values, first line =
northernmost row. Values are written in shortest round-trip form, so a
write/read cycle is bit-exact, except that -0.0 is written as 0. The
writer formats each distinct value of a grid once and gathers the strings
into rows; the bytes are the same as formatting every cell on its own.
The reader accepts finite values only, written as `parse_number` reads
them: a non-finite or underscored header value or cell is a format error.

`parse_number` is the one rule for numbers in every text input and
command-line flag, `write_csv` the shared CSV writer, and `joint_valid`
the one rule for where grids meet: their geometry is checked before their
valid cells are combined.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GeometryError, GridFormatError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True, eq=False)
class Grid:
    values: np.ndarray
    cell_size: float
    x_origin: float = 0.0
    y_origin: float = 0.0
    nodata_value: float = DEFAULT_NODATA

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise DataError("grid values must form a non-empty 2-D array")
        if not float(self.cell_size) > 0.0:
            raise DataError(f"cell_size must be positive, got {self.cell_size}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "cell_size", float(self.cell_size))
        object.__setattr__(self, "x_origin", float(self.x_origin))
        object.__setattr__(self, "y_origin", float(self.y_origin))
        object.__setattr__(self, "nodata_value", float(self.nodata_value))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def valid(self) -> np.ndarray:
        """Boolean array, True where the cell holds data."""
        return self.values != self.nodata_value

    def with_values(self, values, nodata_value=None) -> "Grid":
        """New grid with this grid's geometry and the given cell values."""
        nd = self.nodata_value if nodata_value is None else nodata_value
        return Grid(values, self.cell_size, self.x_origin, self.y_origin, nd)

    def scatter(self, sel, values, nodata_value=None) -> "Grid":
        """New grid with this grid's geometry holding values at the cells
        sel selects and the nodata value (this grid's, by default) elsewhere."""
        nd = self.nodata_value if nodata_value is None else nodata_value
        out = np.full(self.shape, nd)
        out[sel] = values
        return self.with_values(out, nd)

    def same_geometry(self, other: "Grid") -> bool:
        return (
            self.shape == other.shape
            and self.cell_size == other.cell_size
            and self.x_origin == other.x_origin
            and self.y_origin == other.y_origin
        )


def _geometry_text(g: Grid) -> str:
    return f"{g.shape}/{g.cell_size} at lower-left corner ({g.x_origin}, {g.y_origin})"


def require_same_geometry(*grids: Grid, context: str = "operation") -> None:
    first = grids[0]
    for i, g in enumerate(grids[1:], start=1):
        if not first.same_geometry(g):
            raise GeometryError(
                f"{context}: grid {i} geometry {_geometry_text(g)} does not match "
                f"grid 0 geometry {_geometry_text(first)}"
            )


def joint_valid(*grids: Grid, context: str) -> np.ndarray:
    """Boolean array, True where every grid holds data. Grids that do not
    share one geometry raise `require_same_geometry`'s GeometryError."""
    require_same_geometry(*grids, context=context)
    valid = grids[0].valid
    for g in grids[1:]:
        valid &= g.valid
    return valid


def grids_equal(a: Grid, b: Grid) -> bool:
    """Exact equality: metadata and every cell value, bit-for-bit semantics."""
    return (
        a.same_geometry(b)
        and a.nodata_value == b.nodata_value
        and bool(np.array_equal(a.values, b.values))
    )


@dataclass(frozen=True, eq=False)
class BinaryMask(Grid):
    """Grid whose cells are all 0 or 1. 1 means 'selected'."""

    def __post_init__(self):
        super().__post_init__()
        vals = self.values
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise DataError("mask values must all be 0 or 1")

    @property
    def selected(self) -> np.ndarray:
        return self.values == 1.0


def mask_like(grid: Grid, values) -> BinaryMask:
    return BinaryMask(values, grid.cell_size, grid.x_origin, grid.y_origin, grid.nodata_value)


@dataclass(frozen=True, eq=False)
class MultiBandImage:
    """Co-registered bands sharing one geometry. Labels are free-form and unique."""

    bands: tuple[Grid, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        bands = tuple(self.bands)
        labels = tuple(str(x) for x in self.labels)
        if len(bands) == 0:
            raise DataError("image needs at least one band")
        if len(bands) != len(labels):
            raise DataError(f"{len(bands)} bands but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise DataError(f"duplicate band labels in {labels}")
        for i, b in enumerate(bands[1:], start=1):
            if not bands[0].same_geometry(b):
                raise GeometryError(f"band {i} ({labels[i]!r}) geometry does not match band 0")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "labels", labels)

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def geometry(self) -> Grid:
        return self.bands[0]


@dataclass(frozen=True, eq=False)
class LandCoverMap:
    """Categorical raster: integer class ids plus a legend naming every id.

    The labels and class counts are computed once, at construction."""

    grid: Grid
    legend: dict[int, str]
    date_tag: str = ""
    _labels: np.ndarray = field(init=False, repr=False)
    _counts: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        legend = {}
        for k, v in dict(self.legend).items():
            ik = int(k)
            if ik < 0 or ik != k:
                raise DataError(f"class ids must be non-negative integers, got {k!r}")
            legend[ik] = str(v)
        vals = self.grid.values
        valid = self.grid.valid
        data = vals[valid]
        if data.size and not np.all(data == np.floor(data)):
            raise DataError("land cover map holds non-integer class values")
        top = max(legend, default=-1)
        if data.size and not (data.min() >= 0 and data.max() <= top):
            unknown = set(np.unique(data).astype(np.int64).tolist()) - set(legend)
            raise DataError(f"map values {sorted(unknown)} missing from legend {sorted(legend)}")
        codes = data.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max))
        counts = np.bincount(codes)  # as long as the largest id present
        unknown = set(np.flatnonzero(counts).tolist()) - set(legend)
        if unknown:
            raise DataError(f"map values {sorted(unknown)} missing from legend {sorted(legend)}")
        labels = np.full(vals.shape, -1, dtype=codes.dtype)
        labels[valid] = codes
        labels.setflags(write=False)
        object.__setattr__(self, "legend", legend)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_counts", {c: int(counts[c]) if c < counts.size else 0 for c in sorted(legend)})

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.legend)

    @property
    def labels(self) -> np.ndarray:
        """Read-only class ids with -1 at nodata cells, in the narrowest
        signed integer type that holds every legend id (int8 up to 127)."""
        return self._labels

    def class_counts(self) -> dict[int, int]:
        return dict(self._counts)


def neighbor_counts(x, radius: int = 1) -> np.ndarray:
    """Sum of x over the (2r+1)^2 window around each cell, window clipped at
    the edges, center cell left out. With a 0/1 mask and radius 1 this is
    the number of 8-neighbors holding 1.

    The window sum is separable: shifted-slice sums down the rows, then the
    same across the columns, with the edges clipped by the slicing. Every
    caller passes a 0/1 mask, so each partial sum is a small integer and the
    result is exact, whatever the order of the additions. A boolean mask is
    counted in int32, any other array in float64."""
    x = np.asarray(x)
    x = x.astype(np.int32 if x.dtype == bool else np.float64, copy=False)
    n_rows, n_cols = x.shape
    rows = x.copy()
    for d in range(1, min(radius, n_rows - 1) + 1):
        rows[d:] += x[:-d]
        rows[:-d] += x[d:]
    box = rows.copy()
    for d in range(1, min(radius, n_cols - 1) + 1):
        box[:, d:] += rows[:, :-d]
        box[:, :-d] += rows[:, d:]
    box -= x
    return box


# ---------------------------------------------------------------------------
# text I/O


def read_text(path, what: str, encoding: str = "utf-8", error: type = DataError) -> str:
    """Whole content of a text file, line endings untranslated. A file that
    cannot be opened or decoded raises `error` naming the path and the reason."""
    path = str(path)
    try:
        with open(path, "r", encoding=encoding, newline="") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"{path}: cannot read {what}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise error(
            f"{path}: byte {e.object[e.start]:#04x} at offset {e.start} is not {encoding.upper()}"
        ) from None


def parse_number(token: str, kind: type = float, what: str = "value"):
    """kind(token) for kind int or float, with one difference: int() and
    float() read '_' digit groups ("1_0" as 10), this refuses them. A bad
    token raises ValueError naming the rule it broke, `what` and the token.
    Finiteness is left to the caller."""
    if "_" in token:
        raise ValueError(f"'_' in {what} {token!r}")
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"non-{'integer' if kind is int else 'numeric'} {what} {token!r}") from None


def _format_value(v: float) -> str:
    v = float(v)
    # compact digit form for moderate integers, exact repr otherwise; both
    # parse back to the identical float64
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def read_ascii_grid(path) -> Grid:
    path = str(path)
    lines = read_text(path, "grid", encoding="ascii", error=GridFormatError).splitlines()

    header: dict[str, float] = {}
    lineno = 0
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0].lower() not in _HEADER_KEYS:
            break
        lineno += 1
        key = parts[0].lower()
        if key in header:
            raise GridFormatError(f"{path}:{lineno}: duplicate header key {parts[0]}")
        if len(parts) != 2:
            raise GridFormatError(f"{path}:{lineno}: header line needs exactly one value, got {raw!r}")
        try:
            header[key] = parse_number(parts[1], float, "header value")
        except ValueError as e:
            raise GridFormatError(f"{path}:{lineno}: {e} for {parts[0]}") from None
        if not math.isfinite(header[key]):
            raise GridFormatError(
                f"{path}:{lineno}: non-finite header value {parts[1]!r} for {parts[0]}"
            )

    missing = [k.upper() for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"{path}: missing header key(s): {', '.join(missing)}")

    for key in ("ncols", "nrows"):
        if header[key] != int(header[key]) or header[key] < 1:
            raise GridFormatError(f"{path}: {key.upper()} must be a positive integer, got {header[key]}")
    if header["cellsize"] <= 0:
        raise GridFormatError(f"{path}: CELLSIZE must be positive, got {header['cellsize']}")
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])

    rows = []
    data_lines = 0
    for i, raw in enumerate(lines[lineno:], start=lineno + 1):
        tokens = raw.split()
        if not tokens:
            continue  # tolerate blank lines after the data block
        if "_" in raw:  # parse_number's rule, one search per line, not per token
            bad = next(t for t in tokens if "_" in t)
            raise GridFormatError(f"{path}:{i}: '_' in value {bad!r}")
        data_lines += 1
        if data_lines > n_rows:
            raise GridFormatError(f"{path}:{i}: expected {n_rows} data rows, found extra data")
        if len(tokens) != n_cols:
            raise GridFormatError(
                f"{path}:{i}: value count mismatch, expected {n_cols} values, got {len(tokens)}"
            )
        try:
            row = np.array(tokens, dtype=np.float64)
        except ValueError:
            for t in tokens:
                try:
                    parse_number(t, float, "token")
                except ValueError as e:
                    raise GridFormatError(f"{path}:{i}: {e}") from None
            raise
        finite = np.isfinite(row)
        if not finite.all():
            bad = tokens[int(np.argmin(finite))]
            raise GridFormatError(f"{path}:{i}: non-finite value {bad!r}")
        rows.append(row)
    if data_lines < n_rows:
        raise GridFormatError(f"{path}: expected {n_rows} data rows, found {data_lines}")

    return Grid(
        np.vstack(rows),
        cell_size=header["cellsize"],
        x_origin=header["xllcorner"],
        y_origin=header["yllcorner"],
        nodata_value=header["nodata_value"],
    )


def write_ascii_grid(grid: Grid, path) -> None:
    path = str(path)
    out = [
        f"NCOLS {grid.n_cols}",
        f"NROWS {grid.n_rows}",
        f"XLLCORNER {_format_value(grid.x_origin)}",
        f"YLLCORNER {_format_value(grid.y_origin)}",
        f"CELLSIZE {_format_value(grid.cell_size)}",
        f"NODATA_VALUE {_format_value(grid.nodata_value)}",
    ]
    # grids hold few distinct values, so format each one once and gather;
    # -0.0/0.0 and all NaNs merge here but format to the same text anyway
    distinct, inverse = np.unique(grid.values, return_inverse=True)
    text = np.array([_format_value(v) for v in distinct.tolist()], dtype=object)
    out.extend(" ".join(row) for row in text[inverse.reshape(grid.shape)].tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# PPM export


def _stretch_to_bytes(grid: Grid, lo: float, hi: float) -> np.ndarray:
    if not hi > lo:
        raise DataError(f"degenerate stretch range ({lo}, {hi})")
    x = np.clip((grid.values - lo) / (hi - lo), 0.0, 1.0)
    return np.floor(255.0 * x + 0.5).astype(np.uint8)


def export_ppm(r: Grid, g: Grid, b: Grid, stretch, path) -> None:
    """Write a binary P6 image, one channel per grid.

    stretch is ((rmin, rmax), (gmin, gmax), (bmin, bmax)); each channel is
    scaled linearly and clamped. Cells missing in any channel come out black.
    """
    joint = joint_valid(r, g, b, context="export_ppm")
    channels = []
    for grid, (lo, hi) in zip((r, g, b), stretch):
        byte = _stretch_to_bytes(grid, float(lo), float(hi))
        byte[~joint] = 0
        channels.append(byte)
    body = np.stack(channels, axis=-1).tobytes()
    header = f"P6\n{r.n_cols} {r.n_rows}\n255\n".encode("ascii")
    with open(str(path), "wb") as fh:
        fh.write(header + body)


# ---------------------------------------------------------------------------
# CSV and legends


def read_csv_rows(path, what: str) -> list[list[str]]:
    """All rows of a CSV file read with `read_text`. Malformed CSV, such as
    a field over the csv module's size limit, raises a DataError naming the
    path."""
    path = str(path)
    try:
        return list(csv.reader(io.StringIO(read_text(path, what), newline="")))
    except csv.Error as e:
        raise DataError(f"{path}: malformed CSV: {e}") from None


def read_legend(path) -> dict[int, str]:
    path = str(path)
    rows = read_csv_rows(path, "legend")
    if not rows or [c.strip().lower() for c in rows[0]] != ["id", "name"]:
        raise DataError(f"{path}: legend CSV must start with an 'id,name' header")
    legend: dict[int, str] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{path}:{i}: legend rows need exactly 'id,name'")
        try:
            cid = parse_number(row[0], int)
        except ValueError:
            raise DataError(f"{path}:{i}: bad class id {row[0]!r}") from None
        if cid < 0:
            raise DataError(f"{path}:{i}: class ids must be non-negative, got {cid}")
        if cid in legend:
            raise DataError(f"{path}:{i}: duplicate class id {cid}")
        legend[cid] = row[1]
    return legend


def write_csv(path, rows, comment: str | None = None) -> None:
    """Write rows as UTF-8 CSV in the csv module's default dialect: minimal
    quoting and CRLF row ends. A comment, if given, goes first as one
    '# <comment>' line ended by LF."""
    with open(str(path), "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerows(rows)


def load_legend(path, *grids: Grid) -> dict[int, str]:
    """The legend file at path or, with no path, a 'class <id>' legend for
    every value present in the grids' valid cells."""
    if path:
        return read_legend(path)
    present: set[int] = set()
    for g in grids:
        present |= set(np.unique(g.values[g.valid]).astype(np.int64).tolist())
    return {c: f"class {c}" for c in sorted(present)}


def write_legend(legend: dict[int, str], path) -> None:
    write_csv(path, [["id", "name"]] + [[cid, legend[cid]] for cid in sorted(legend)])
