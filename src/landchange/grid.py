"""Core raster types and file I/O.

Every raster has square cells on one geometry (a shape, a cell size and a
lower-left corner, shared through `Raster`) and cells that hold data or
not. Row 0 is the northernmost row. A raster keeps its cells in one of two
ways:
- a `Grid` holds float64 values; cells holding exactly ``nodata_value``
  are missing;
- an `IntegerRaster`, whose valid cells are whole numbers from 0 to its
  top, holds codes of the narrowest signed type for top (`label_type`),
  -1 at nodata, and builds its float `values` on each read. It has two
  kinds: a `LandCoverMap`, whose top is its largest class id, and a
  `criteria.SuitabilityGrid`, whose top is 255 (int16, 2 bytes a cell).
  Kernels read its `stored` codes and cast them to a wider type before
  any arithmetic, since narrow integer arithmetic wraps silently.
Instances are immutable: the backing arrays are marked read-only, so
rasters can be shared freely between threads; every operation returns new
ones.

The on-disk format is a plain-text grid: six header lines (NCOLS, NROWS,
XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE, any case, any order) followed
by NROWS lines of NCOLS whitespace-separated decimal values, first line =
northernmost row. Values are written in shortest round-trip form, so a
write/read cycle is bit-exact, except that -0.0 is written as 0. The
writer formats each distinct value of a grid once and gathers the strings
into rows, writing the body 64 rows at a time; the bytes are the same as
formatting every cell on its own. A raster whose valid values are all
integers from 0 to 65535 takes its strings from a table indexed by value,
one block of indices at a time: an `IntegerRaster` by its top, with no
scan, and a float grid after `integer_range` scans it.
Any other grid finds its distinct values with `np.unique` and formats them
in two batches (compact integers and repr). The reader accepts finite
values only, written as `parse_number` reads them: a non-finite or
underscored header value or cell is a format error. A valid body is
parsed in one `np.loadtxt` call; any other body goes to a loop over its
lines, which words the error with the path, the line and the token.

`Grid.integer_range` is the one rule for whole-number grids: whether every
valid value is a finite whole number and, if so, the lowest and highest.
It is found once per grid, which is sound because the values are
read-only, by a scan in blocks of cells (`whole_range`); an
`IntegerRaster`'s is (0, top), with no scan.
Land-cover maps, suitabilities, vigour levels, trajectory codes, the
cellular pass's byte key and the writer's table all read it; no other
module checks values for wholeness.

Every grid the program makes from computed values is on DEFAULT_NODATA
(-9999), whatever its inputs use: a kernel starts from `Grid.blank`, fills
it and wraps it with `Grid.computed` (`Grid.scatter` and `mask_like` do
both), and no module but this one names the value. An `IntegerRaster`
made from a kernel's labels or cells (`from_labels`, `from_cells`) is on
it too. An input on NODATA_VALUE 0 thus keeps its class 0, level 0 or
probability 0 cells as data. The one exception is `classify.maxlike`'s
internal score grids, which are on SCORE_NODATA, since -9999 is a
reachable log-score.

`class_index` is the one rule for class ids, whole numbers from 0 to 65535
(the writer's table bound): every module checks ids and finds their places
in a class list through it, `joint_counts`, the one pair-count kernel, too.

`naming` is the one rule for naming an input in its errors: a DataError
raised while an input's content is checked is raised again, of the same
type, with the input's path in front. `read_mask`, the one reader of 0/1
mask files, checks through it, and so does every other reader of a
checked input. It wraps the check and never the read, whose errors name
the path already, so no message names a path twice.

`require_same_geometry` is the one rule for geometry: it takes (name,
grid) pairs and words a mismatch as '<name> geometry <G> does not match
<first name> geometry <G0>'. `require_same_classes` is the one rule for
class sets, worded alike: '<name> classes [..] do not match <first name>
classes [..]'; `require_classes_cover`, for an input that may hold more
classes, refuses through it. Every input is checked where it is read,
under the name the user gave it: its path on the command line, its config
key in the pipeline, its label in `MultiBandImage`. A kernel's own guards
name their inputs by role or by position, through `by_position`.

`parse_number` is the one rule for numbers in every text input and
command-line flag, `write_csv` the shared CSV writer, and `joint_valid`
the one rule for where grids meet: their geometry is checked before their
valid cells are combined.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GeometryError, GridFormatError

DEFAULT_NODATA = -9999.0

# rows of the body the writer gathers, joins and writes at a time
_WRITE_BLOCK_ROWS = 64
# a grid whose valid values are all integers from 0 to this takes the text
# of each cell from a table indexed by value, with no sort; the largest id
_TABLE_MAX = 65535
_ID_RULE = f"class ids must be integers from 0 to {_TABLE_MAX}"

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


# cells a whole-number scan or a label count takes at a time, so that its
# temporaries stay small whatever the grid's size
_SCAN_CELLS = 1 << 14


class Raster:
    """What every raster shares: a shape, a square cell size, a lower-left
    corner and `valid`, a fresh boolean array, True where a cell holds data.
    A subclass gives those, its `stored` array and `integer_range`; the
    geometry rules and the builders of computed grids are here."""

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def holds_integers(self, lo: int, hi: int) -> bool:
        """True when every valid value is a whole number from lo to hi."""
        return _within(self.integer_range, lo, hi)

    def blank(self, fill: float = DEFAULT_NODATA) -> np.ndarray:
        """A float array of this raster's shape, every cell fill: a kernel
        fills its data cells in place and wraps it with `computed`."""
        return np.full(self.shape, fill)

    def computed(self, values, kind: type | None = None, nodata_value: float = DEFAULT_NODATA) -> "Grid":
        """New grid, a `kind` (Grid by default), holding computed values on
        this raster's geometry and DEFAULT_NODATA, whatever this raster uses,
        so no computed value can fall on an input's nodata."""
        return (kind or Grid)(values, self.cell_size, self.x_origin, self.y_origin, nodata_value)

    def scatter(self, sel, values, kind: type | None = None) -> "Grid":
        """New grid, a `kind` (Grid by default), with this raster's geometry
        holding values at the cells sel selects (`...` for every cell) and
        DEFAULT_NODATA elsewhere, as `computed` makes it."""
        out = self.blank()
        out[sel] = values
        return self.computed(out, kind)

    def same_geometry(self, other: "Raster") -> bool:
        return (
            self.shape == other.shape
            and self.cell_size == other.cell_size
            and self.x_origin == other.x_origin
            and self.y_origin == other.y_origin
        )


def _within(r: tuple[int, int] | None, lo: int, hi: int) -> bool:
    """True when the range r, as `whole_range` gives it, lies in lo..hi."""
    return r is not None and (r[0] > r[1] or lo <= r[0] and r[1] <= hi)


def whole_range(values: np.ndarray, nodata: float | None = None) -> tuple[int, int] | None:
    """(lowest, highest) of the values other than nodata as ints when every
    one is a finite whole number, else None; (0, -1) when there is none.
    Scans _SCAN_CELLS cells at a time, so its temporaries (a mask, one
    `np.trunc` result) are those of one block. An integer array, which has
    no nodata, gives its bounds."""
    if values.dtype.kind in "iu":
        return (int(values.min()), int(values.max())) if values.size else (0, -1)
    lo, hi = math.inf, -math.inf
    flat = values.reshape(-1)
    for start in range(0, flat.size, _SCAN_CELLS):
        v = flat[start : start + _SCAN_CELLS]
        ok = True if nodata is None else v != nodata
        v_lo = v.min(where=ok, initial=math.inf)  # nan if any value it takes is
        v_hi = v.max(where=ok, initial=-math.inf)
        if v_lo > v_hi:  # no value here
            continue
        if not (math.isfinite(v_lo) and math.isfinite(v_hi) and np.all(np.trunc(v) == v, where=ok)):
            return None
        lo, hi = min(lo, v_lo), max(hi, v_hi)
    return (0, -1) if lo > hi else (int(lo), int(hi))


@dataclass(frozen=True, eq=False)
class Grid(Raster):
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
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def stored(self) -> np.ndarray:
        """The array the grid keeps: its float64 `values`."""
        return self.values

    @property
    def valid(self) -> np.ndarray:
        """Boolean array, True where the cell holds data."""
        return self.values != self.nodata_value

    @functools.cached_property
    def integer_range(self) -> tuple[int, int] | None:
        """(lowest, highest) valid value as ints when every valid value is a
        finite whole number, else None; (0, -1) when no cell is valid. Found
        once per grid, as the values are read-only, by `whole_range`'s scan
        in blocks."""
        return whole_range(self.values, self.nodata_value)

    def with_values(self, values) -> "Grid":
        """New grid with this grid's geometry, nodata value and the given
        cell values."""
        return Grid(values, self.cell_size, self.x_origin, self.y_origin, self.nodata_value)


def _geometry_text(g: Raster) -> str:
    return f"{g.shape}/{g.cell_size} at lower-left corner ({g.x_origin}, {g.y_origin})"


def require_same_geometry(*named: tuple[str, Raster]) -> None:
    """Raise a GeometryError naming the first (name, grid) pair whose grid
    does not share the first pair's geometry, and that pair:
    '<name> geometry <G> does not match <first name> geometry <G0>'. The
    only wording of a geometry mismatch."""
    (first_name, first), *rest = named
    for name, g in rest:
        if not first.same_geometry(g):
            raise GeometryError(
                f"{name} geometry {_geometry_text(g)} does not match "
                f"{first_name} geometry {_geometry_text(first)}"
            )


def by_position(context: str, *grids) -> list[tuple]:
    """The grids, or their class ids, named by position, 'grid 0' and
    '<context>: grid i': the names of a kernel's own guard."""
    return [(f"{context}: grid {i}" if i else "grid 0", g) for i, g in enumerate(grids)]


def require_same_classes(*named: tuple) -> None:
    """Raise a DataError naming the first (name, class ids) pair whose ids
    differ, as a set, from the first pair's, and that pair: '<name> classes
    [..] do not match <first name> classes [..]'."""
    (first_name, first), *rest = named
    for name, ids in rest:
        if set(ids) != set(first):
            raise DataError(f"{name} classes {sorted(ids)} do not match {first_name} classes {sorted(first)}")


def require_classes_cover(first: tuple, later: tuple) -> None:
    """`require_same_classes` for two pairs, where `later` may hold more ids
    than `first`: it is refused only for lacking one, in that rule's words."""
    if not set(first[1]) <= set(later[1]):
        require_same_classes(first, later)


def joint_valid(*grids: Raster, context: str) -> np.ndarray:
    """Boolean array, True where every grid holds data. Grids that do not
    share one geometry raise `require_same_geometry`'s GeometryError,
    named by position."""
    require_same_geometry(*by_position(context, *grids))
    valid = grids[0].valid
    for g in grids[1:]:
        valid &= g.valid
    return valid


def require_data_under(ref: Raster, g: Raster, what: str, where: str) -> None:
    """Raise a DataError naming the first cell, in row-major order, where
    `ref` holds data and `g`, of the same geometry, does not."""
    missing = np.flatnonzero(ref.valid & ~g.valid)
    if missing.size:
        row, col = divmod(int(missing[0]), ref.n_cols)
        raise DataError(f"{what} is nodata at cell (row {row}, col {col}), where {where} holds data")


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
    """0/1 mask on grid's geometry and DEFAULT_NODATA, so its 0 cells are data."""
    return grid.computed(values, BinaryMask)


@contextlib.contextmanager
def naming(path):
    """A DataError raised inside is raised again, of the same type, as
    '<path>: <message>': how an error in an input's content names it."""
    try:
        yield
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None


def read_mask(path) -> BinaryMask:
    """The 0/1 mask in the grid file at path; any other value is a DataError
    naming the path."""
    g = read_ascii_grid(path)
    with naming(path):
        return mask_like(g, g.values)


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
        require_same_geometry(*((f"band {label!r}", b) for label, b in zip(labels, bands)))
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "labels", labels)

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def geometry(self) -> Grid:
        return self.bands[0]


def _distinct(values: np.ndarray) -> list:
    """The distinct values, ascending, whole numbers as exact Python ints and
    any other value as its float, so an error can name each as it is."""
    return [int(v) if v.is_integer() else v for v in np.unique(values).tolist()]


def class_index(ids) -> np.ndarray:
    """Table of class positions: entry ids[i] holds i, every other entry -1.
    An id that is not a whole number from 0 to 65535, or one listed twice,
    raises a DataError naming it."""
    for c in ids:
        if not (0 <= c <= _TABLE_MAX and c == int(c)):  # nan and inf fail the range test
            raise DataError(f"{_ID_RULE}, got {c!r}")
    pos = np.full(int(max(ids, default=-1)) + 1, -1, dtype=np.intp)
    pos[np.asarray(ids, dtype=np.intp)] = np.arange(len(ids))
    if np.count_nonzero(pos >= 0) != len(ids):
        raise DataError(f"duplicate class ids: {next(c for c in ids if list(ids).count(c) > 1)} is listed twice")
    return pos


def joint_counts(ids, *labels: np.ndarray) -> np.ndarray:
    """Counts[i, j, ...] = positions where labels[0] holds ids[i], labels[1]
    holds ids[j], and so on. Every label must be one of ids."""
    k = len(ids)
    pos = class_index(ids)
    flat = pos[labels[0]]
    for lab in labels[1:]:
        flat = flat * k + pos[lab]
    return np.bincount(flat, minlength=k ** len(labels)).reshape((k,) * len(labels))


def label_type(max_id: int) -> type:
    """The narrowest signed integer type that holds -1 and every id up to
    max_id (int8 up to 127): the type of an `IntegerRaster`'s codes."""
    return next(t for t in (np.int8, np.int16, np.int32) if max_id <= np.iinfo(t).max)


def _label_counts(labels: np.ndarray, size: int) -> np.ndarray:
    """Counts of each id from 0 to size - 1 among the labels, -1 at nodata,
    _SCAN_CELLS cells at a time, so no index array as large as the map is
    made. Every label is below size."""
    counts = np.zeros(size, dtype=np.intp)
    flat = labels.reshape(-1)
    for start in range(0, flat.size, _SCAN_CELLS):
        block = flat[start : start + _SCAN_CELLS]
        counts += np.bincount(block[block >= 0], minlength=size)
    return counts


@dataclass(frozen=True, eq=False, init=False)
class IntegerRaster(Raster):
    """Raster whose valid cells are whole numbers from 0 to `top`, kept as
    codes: `stored`, a read-only array of `label_type(top)`, -1 at nodata
    cells, beside the geometry and the nodata value it is written on.
    `values` builds a float64 copy on each read; `integer_range` is (0, top).

    A kind gives `top` and `_refuse`, which raises its DataError for values
    outside 0..top. It is built from float values, as a Grid is, checked
    once (`_take_grid`), or from one value per selected cell (`from_cells`,
    through `_take_cells`); both set every field through `_keep`."""

    stored: np.ndarray = field(repr=False)
    cell_size: float
    x_origin: float
    y_origin: float
    nodata_value: float

    def __init__(self, *args, **kwargs):
        self._take_grid(Grid(*args, **kwargs))

    @classmethod
    def from_cells(cls, geometry: Raster, sel: np.ndarray, values):
        """values, one per cell that the boolean array sel selects, on
        geometry's cell size and corner and on DEFAULT_NODATA, as
        `Raster.computed` makes a grid, nodata where sel is False. Values
        that are not all whole numbers from 0 to top raise the kind's
        DataError."""
        out = object.__new__(cls)
        out._take_cells(geometry, sel, values)
        return out

    def _keep(self, geometry: Raster, codes: np.ndarray, nodata_value: float) -> None:
        """Set the codes, read-only, geometry's cell size and corner, and nodata_value."""
        codes.setflags(write=False)
        object.__setattr__(self, "stored", codes)
        for name in ("cell_size", "x_origin", "y_origin"):
            object.__setattr__(self, name, float(getattr(geometry, name)))
        object.__setattr__(self, "nodata_value", float(nodata_value))

    def _take_grid(self, grid: Grid) -> None:
        """Keep a float grid's values on its nodata value, checked once."""
        if not grid.holds_integers(0, self.top):
            self._refuse(grid.values[grid.valid])
        codes = np.full(grid.shape, -1, dtype=label_type(self.top))
        np.copyto(codes, grid.values, casting="unsafe", where=grid.valid)  # whole numbers: exact
        self._keep(grid, codes, grid.nodata_value)

    def _take_cells(self, geometry: Raster, sel: np.ndarray, values) -> None:
        """Keep values at the cells sel selects, as `from_cells` takes them."""
        values = np.asarray(values)
        if not _within(whole_range(values), 0, self.top):
            self._refuse(values)
        codes = np.full(geometry.shape, -1, dtype=label_type(self.top))
        codes[sel] = values
        self._keep(geometry, codes, DEFAULT_NODATA)

    @property
    def shape(self) -> tuple[int, int]:
        return self.stored.shape

    @property
    def valid(self) -> np.ndarray:
        return self.stored >= 0

    @property
    def values(self) -> np.ndarray:
        """A new read-only float64 copy, nodata_value at nodata cells."""
        out = self.blank(self.nodata_value)
        np.copyto(out, self.stored, where=self.valid)
        out.setflags(write=False)
        return out

    @property
    def integer_range(self) -> tuple[int, int]:
        return 0, self.top  # no scan


@dataclass(frozen=True, eq=False, init=False)
class LandCoverMap(IntegerRaster):
    """Categorical raster: integer class ids plus a legend naming every id.

    The `IntegerRaster` whose top is its largest legend id and whose codes
    are its `labels`; `grid` builds a float grid on each read. A kernel that
    holds labels makes its map with `from_labels` or `from_cells`. The class
    counts are found once, at construction, where an id missing from the
    legend is refused."""

    legend: dict[int, str]
    date_tag: str
    _counts: dict[int, int] = field(repr=False)

    def __init__(self, grid: Grid, legend: dict[int, str], date_tag: str = ""):
        self._name(legend, date_tag)
        self._take_grid(grid)
        self._count()

    @classmethod
    def from_labels(cls, geometry: Raster, labels, legend: dict[int, str], date_tag: str = ""):
        """The map of `labels`, an integer array of class ids with -1 at
        nodata, on geometry's cell size and corner and on DEFAULT_NODATA, as
        `Raster.computed` makes a grid. Labels already of the legend's label
        type are kept as they are, read-only; others are converted. An id
        missing from the legend raises the constructor's DataError."""
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu" or labels.shape != geometry.shape:
            raise DataError(f"labels must be an integer array of shape {geometry.shape}")
        if labels.min() < -1:
            raise DataError("labels must be class ids, or -1 at nodata")
        lc = object.__new__(cls)
        lc._name(legend, date_tag)
        if labels.max() > lc.top:  # before the conversion, which would wrap it
            lc._refuse(labels[labels > lc.top])
        lc._keep(geometry, labels.astype(label_type(lc.top), copy=False), DEFAULT_NODATA)
        lc._count()
        return lc

    @classmethod
    def from_cells(cls, geometry: Raster, sel: np.ndarray, ids, legend: dict[int, str], date_tag: str = ""):
        """`from_labels` of the class ids `ids`, one per cell that the
        boolean array sel selects, and nodata elsewhere."""
        lc = object.__new__(cls)
        lc._name(legend, date_tag)
        lc._take_cells(geometry, sel, ids)
        lc._count()
        return lc

    def _name(self, legend: dict[int, str], date_tag: str) -> None:
        class_index(sorted(legend))  # an id must be a whole number from 0 to 65535
        object.__setattr__(self, "legend", {int(k): str(v) for k, v in legend.items()})
        object.__setattr__(self, "date_tag", date_tag)

    def _count(self) -> None:
        """Count the classes, refusing an id missing from the legend."""
        counts = _label_counts(self.labels, self.top + 1)
        stray = [c for c in np.flatnonzero(counts).tolist() if c not in self.legend]
        if stray:
            self._refuse(stray)
        object.__setattr__(self, "_counts", {c: int(counts[c]) for c in self.class_ids})

    def _refuse(self, values) -> None:
        stray = [v for v in _distinct(np.asarray(values, dtype=np.float64)) if v not in self.legend]
        raise DataError(f"map values {stray} missing from legend {self.class_ids}")

    @property
    def top(self) -> int:
        return max(self.legend, default=-1)

    @property
    def labels(self) -> np.ndarray:
        """The codes: class ids, -1 at nodata, in `label_type` of the legend."""
        return self.stored

    @property
    def grid(self) -> Grid:
        """A new float grid of the class ids, on the map's geometry and
        nodata value; built on each read and not kept."""
        return Grid(self.values, self.cell_size, self.x_origin, self.y_origin, self.nodata_value)

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.legend)

    def class_counts(self) -> dict[int, int]:
        return dict(self._counts)


def neighbor_counts(mask: np.ndarray, radius: int = 1) -> np.ndarray:
    """Count of True cells of a boolean mask in the (2r+1)^2 window around
    each cell, window clipped at the edges, center cell left out, as int32.
    With radius 1 this is the number of 8-neighbors holding True.

    The window sum is separable: shifted-slice sums down the rows, then the
    same across the columns, with the edges clipped by the slicing."""
    x = mask.astype(np.int32)
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


def _format_values(values: np.ndarray) -> np.ndarray:
    """Text of each float64 value, as an object array of str: the digits of
    its int64 for an integral value below 1e16 in magnitude, repr otherwise.
    Both parse back to the identical float64, except -0.0, written as 0.
    Each form is made in one batch."""
    values = np.asarray(values, dtype=np.float64)
    compact = np.abs(values) < 1e16  # False at inf and NaN
    compact[compact] = np.trunc(values[compact]) == values[compact]
    text = np.empty(values.shape, dtype=object)
    text[compact] = list(map(str, values[compact].astype(np.int64).tolist()))
    text[~compact] = list(map(repr, values[~compact].tolist()))
    return text


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

    # one loadtxt call parses a valid body; a body that fails it, or gives
    # a wrong shape or a non-finite value, goes to the line loop, which words
    # the error. A body with no data row goes straight to the loop, because
    # loadtxt warns on it, and a warnings filter would act process-wide
    body = lines[lineno:]
    values = None
    if any(map(str.strip, body)):
        try:
            values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (n_rows, n_cols) or not np.isfinite(values).all():
        values = _read_body_lines(path, body, lineno, n_rows, n_cols)

    return Grid(
        values,
        cell_size=header["cellsize"],
        x_origin=header["xllcorner"],
        y_origin=header["yllcorner"],
        nodata_value=header["nodata_value"],
    )


def _read_body_lines(path: str, body: list[str], lineno: int, n_rows: int, n_cols: int) -> np.ndarray:
    """The grid body parsed one line at a time, line `lineno` + 1 first. A
    body that breaks the format raises a GridFormatError naming the path,
    the line and the token."""
    rows = []
    data_lines = 0
    for i, raw in enumerate(body, start=lineno + 1):
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

    return np.vstack(rows)


def write_ascii_grid(grid: Raster, path) -> None:
    """Write a Grid, a LandCoverMap or a SuitabilityGrid as a text grid on
    its nodata value."""
    path = str(path)
    x, y, cell, nodata = _format_values([grid.x_origin, grid.y_origin, grid.cell_size, grid.nodata_value])
    header = (
        f"NCOLS {grid.n_cols}\n"
        f"NROWS {grid.n_rows}\n"
        f"XLLCORNER {x}\n"
        f"YLLCORNER {y}\n"
        f"CELLSIZE {cell}\n"
        f"NODATA_VALUE {nodata}\n"
    )
    # grids hold few distinct values, so format each one once and gather
    if grid.holds_integers(0, _TABLE_MAX):
        # integer values: the text of value v is text[v + 1], nodata's
        # text[0], and each block's index is made as it is written
        text = np.array([nodata, *map(str, range(grid.integer_range[1] + 1))], dtype=object)
        values, valid = grid.stored, grid.valid

        def index(rows: slice) -> np.ndarray:
            # added in intp, as narrow codes would wrap at their top
            # value; -0.0 + 1 lands on 0's text
            out = np.zeros(values[rows].shape, dtype=np.intp)
            np.add(values[rows], 1, out=out, where=valid[rows], casting="unsafe", dtype=np.intp)
            return out

    else:
        # -0.0/0.0 and all NaNs merge here but format to the same text anyway
        distinct, inverse = np.unique(grid.values, return_inverse=True)
        text = _format_values(distinct)
        inverse = inverse.reshape(grid.shape)
        index = inverse.__getitem__
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        for start in range(0, grid.n_rows, _WRITE_BLOCK_ROWS):
            block = text[index(slice(start, start + _WRITE_BLOCK_ROWS))].tolist()
            fh.write("".join(" ".join(row) + "\n" for row in block))


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
        if not 0 <= cid <= _TABLE_MAX:
            raise DataError(f"{path}:{i}: {_ID_RULE}, got {cid}")
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
    every value present in the grids' valid cells, whole numbers as ints."""
    if path:
        return read_legend(path)
    present = set()
    for g in grids:
        present.update(_distinct(g.values[g.valid]))
    return {c: f"class {c}" for c in sorted(present)}


def write_legend(legend: dict[int, str], path) -> None:
    write_csv(path, [["id", "name"]] + [[cid, legend[cid]] for cid in sorted(legend)])
