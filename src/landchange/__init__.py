"""Raster land-cover change analysis, suitability modeling and allocation.

The toolkit covers the full chain from image preparation to projection:
radiometric correction and band selection, spectral indices and change
composites, supervised classification with spatial smoothing, criterion
standardization, multi-criteria evaluation, Markov transition analysis,
spatial allocation of projected change, and a perceptron change model.
Everything operates on plain-text grids and is driven either as a library
or through the ``landchange`` command line tool.
"""

from .errors import (
    ConfigError,
    DataError,
    GeometryError,
    GridFormatError,
    LandchangeError,
    NumericalError,
)
from .grid import (
    BinaryMask,
    Grid,
    LandCoverMap,
    MultiBandImage,
    export_ppm,
    grids_equal,
    read_ascii_grid,
    read_legend,
    write_ascii_grid,
    write_legend,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMask",
    "ConfigError",
    "DataError",
    "GeometryError",
    "Grid",
    "GridFormatError",
    "LandchangeError",
    "LandCoverMap",
    "MultiBandImage",
    "NumericalError",
    "export_ppm",
    "grids_equal",
    "read_ascii_grid",
    "read_legend",
    "write_ascii_grid",
    "write_legend",
    "__version__",
]
