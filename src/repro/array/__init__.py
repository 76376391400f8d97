"""Programmable electrode array: geometry, pixels, frames, cages, timing."""

from .addressing import RowColumnAddresser, TimingBudget
from .cages import Cage, CageError, CageManager, tile_cages
from .drive import ArrayDrivePower, PhaseGenerator
from .grid import ElectrodeGrid, paper_grid
from .legacy import LegacyCageManager
from .patterns import ArrayFrame, Phase, cage_frame, uniform_frame
from .pixel import PixelDesign
from .state import ArrayState

__all__ = [name for name in dir() if not name.startswith("_")]
