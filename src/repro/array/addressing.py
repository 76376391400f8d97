"""Row/column addressing and scan timing (paper claim C2).

The paper's chip writes phase patterns into the in-pixel memories
through a row/column interface, like a memory: select a row, drive the
column data lines, latch, next row.  Sensor readout scans the same way
in reverse.  :class:`RowColumnAddresser` models the resulting timing:

* full-frame programming time,
* incremental update time (only dirty rows are rewritten),
* full and partial sensor scan time,

which the timing benchmark compares against the *mass-transfer*
timescale (a cell crossing one 20 um pitch at 10-100 um/s takes
0.2-2 s) to reproduce the paper's "plenty of time" claim: electronics is
3-6 orders of magnitude faster than the cells it commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import ElectrodeGrid
from .patterns import ArrayFrame


@dataclass(frozen=True)
class RowColumnAddresser:
    """Timing model of the array's digital interface.

    Parameters
    ----------
    grid:
        Array geometry.
    clock_frequency:
        Interface clock [Hz].  The paper-era chip ran its digital
        interface in the tens of MHz; the default is a conservative
        10 MHz.
    word_width:
        Column data bus width in pixels written per clock edge.
    row_overhead_cycles:
        Cycles of row-select/latch overhead per row access.
    bits_per_pixel:
        Memory bits written per pixel (phase code width).
    sensor_conversion_cycles:
        Cycles to digitise one pixel's sensor value (sample + convert,
        amortised when ``sensor_parallel_columns`` > 1).
    sensor_parallel_columns:
        Column-parallel analog chains reading simultaneously.
    """

    grid: ElectrodeGrid
    clock_frequency: float = 10e6
    word_width: int = 32
    row_overhead_cycles: int = 4
    bits_per_pixel: int = 2
    sensor_conversion_cycles: int = 8
    sensor_parallel_columns: int = 32

    def __post_init__(self):
        if self.clock_frequency <= 0.0:
            raise ValueError("clock frequency must be positive")
        if self.word_width < 1 or self.sensor_parallel_columns < 1:
            raise ValueError("bus widths must be >= 1")

    @property
    def clock_period(self) -> float:
        """One interface clock period [s]."""
        return 1.0 / self.clock_frequency

    def row_write_cycles(self) -> int:
        """Clock cycles to write one full row of pixel memories."""
        # The bus carries word_width pixels worth of phase code per cycle.
        words = math.ceil(self.grid.cols / self.word_width)
        return words + self.row_overhead_cycles

    def row_write_time(self) -> float:
        """Seconds to write one row."""
        return self.row_write_cycles() * self.clock_period

    def frame_program_time(self) -> float:
        """Seconds to program the entire array (every row)."""
        return self.grid.rows * self.row_write_time()

    def incremental_program_time(self, old_frame, new_frame) -> float:
        """Seconds to update only the rows that changed between frames.

        Cage motion touches a handful of rows per step, so incremental
        updates are hundreds of times cheaper than full frames --
        further widening the electronics/mass-transfer gap.
        """
        if not isinstance(old_frame, ArrayFrame) or not isinstance(new_frame, ArrayFrame):
            raise TypeError("expected ArrayFrame arguments")
        dirty = new_frame.dirty_rows(old_frame)
        return len(dirty) * self.row_write_time()

    def row_scan_cycles(self) -> int:
        """Cycles to read one row of sensors."""
        groups = math.ceil(self.grid.cols / self.sensor_parallel_columns)
        return groups * self.sensor_conversion_cycles + self.row_overhead_cycles

    def row_scan_time(self) -> float:
        """Seconds to read one row of sensors."""
        return self.row_scan_cycles() * self.clock_period

    def frame_scan_time(self) -> float:
        """Seconds to read every sensor on the array once."""
        return self.grid.rows * self.row_scan_time()

    def region_scan_time(self, n_rows) -> float:
        """Seconds to read ``n_rows`` rows of sensors."""
        if not 0 <= n_rows <= self.grid.rows:
            raise ValueError("row count out of range")
        return n_rows * self.row_scan_time()

    def max_frame_rate(self) -> float:
        """Full program + full scan repetitions per second [Hz]."""
        return 1.0 / (self.frame_program_time() + self.frame_scan_time())

    def scans_within(self, time_budget) -> int:
        """How many full-array sensor scans fit in ``time_budget`` seconds.

        This is the averaging headroom of claim C3: with a cell needing
        ~1 s to move one pitch, hundreds to thousands of scans fit in a
        single motion step.
        """
        if time_budget < 0.0:
            raise ValueError("time budget must be non-negative")
        frame = self.frame_scan_time()
        return int(time_budget / frame)


@dataclass(frozen=True)
class TimingBudget:
    """Electronics-vs-mass-transfer comparison for one operating point.

    Parameters
    ----------
    addresser:
        The interface timing model.
    cell_speed:
        DEP manipulation speed [m/s] (paper: 10-100 um/s).
    """

    addresser: RowColumnAddresser
    cell_speed: float

    def __post_init__(self):
        if self.cell_speed <= 0.0:
            raise ValueError("cell speed must be positive")

    def pitch_transit_time(self) -> float:
        """Seconds for a cell to cross one electrode pitch."""
        return self.addresser.grid.pitch / self.cell_speed

    def electronics_time(self) -> float:
        """Seconds for one full reprogram + one full sensor scan."""
        return self.addresser.frame_program_time() + self.addresser.frame_scan_time()

    def slack_ratio(self) -> float:
        """pitch transit time / electronics time (>> 1 per the paper)."""
        return self.pitch_transit_time() / self.electronics_time()

    def spare_scans_per_step(self) -> int:
        """Full sensor scans that fit in one motion step after the
        reprogram -- the time the paper says we can spend on quality."""
        budget = self.pitch_transit_time() - self.addresser.frame_program_time()
        return max(0, self.addresser.scans_within(max(budget, 0.0)))
