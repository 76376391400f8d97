"""Fluidic mask layout: the one-or-two-layer photolithography the paper needs.

"Fluidic design typically requires a simple mask layout (one or two
layers)" with "minimum feature size ... in the order of hundred
microns".  We implement the small rectilinear layout kernel that covers
that need: named layers of axis-aligned rectangles (and rectilinear
polygons composed of them), boolean-ish area queries, and the geometric
predicates the DRC layer builds on.  Deliberately *not* a general GDS
engine: one of the paper's points is that fluidic layouts are simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [m] with x_min < x_max, y_min < y_max."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self!r}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def min_feature(self) -> float:
        """Smaller of the two extents -- the lithographic feature size."""
        return min(self.width, self.height)

    def intersects(self, other) -> bool:
        """Open-interval overlap (touching edges do not intersect)."""
        return not (
            self.x_max <= other.x_min
            or other.x_max <= self.x_min
            or self.y_max <= other.y_min
            or other.y_max <= self.y_min
        )

    def contains(self, other) -> bool:
        """Whether ``other`` lies fully within this rectangle."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )

    def expanded(self, margin) -> "Rect":
        """Rectangle grown by ``margin`` on every side."""
        return Rect(
            self.x_min - margin,
            self.y_min - margin,
            self.x_max + margin,
            self.y_max + margin,
        )

    def gap_to(self, other) -> float:
        """Minimum edge-to-edge distance (0 when overlapping/touching)."""
        dx = max(0.0, max(other.x_min - self.x_max, self.x_min - other.x_max))
        dy = max(0.0, max(other.y_min - self.y_max, self.y_min - other.y_max))
        return (dx * dx + dy * dy) ** 0.5


@dataclass
class MaskLayer:
    """One photolithography layer: a named set of rectangles."""

    name: str
    rects: list = field(default_factory=list)

    def add(self, rect) -> Rect:
        self.rects.append(rect)
        return rect

    def add_rect(self, x_min, y_min, x_max, y_max) -> Rect:
        return self.add(Rect(x_min, y_min, x_max, y_max))

    @property
    def count(self) -> int:
        return len(self.rects)

    def bounding_box(self):
        """Overall bounding Rect, or None for an empty layer."""
        if not self.rects:
            return None
        return Rect(
            min(r.x_min for r in self.rects),
            min(r.y_min for r in self.rects),
            max(r.x_max for r in self.rects),
            max(r.y_max for r in self.rects),
        )

    def min_feature(self) -> float:
        """Smallest feature on the layer (inf for empty layers)."""
        return min((r.min_feature for r in self.rects), default=float("inf"))


@dataclass
class FluidicLayout:
    """A complete fluidic mask set (one or two layers, per the paper).

    Layers are created on first access via :meth:`layer`.  Typical use::

        layout = FluidicLayout("chamber-v1")
        walls = layout.layer("resist-walls")
        walls.add_rect(...)
    """

    name: str
    layers: dict = field(default_factory=dict)

    def layer(self, layer_name) -> MaskLayer:
        """Get or create a layer by name."""
        if layer_name not in self.layers:
            self.layers[layer_name] = MaskLayer(layer_name)
        return self.layers[layer_name]

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def total_rect_count(self) -> int:
        return sum(layer.count for layer in self.layers.values())

    def bounding_box(self):
        boxes = [l.bounding_box() for l in self.layers.values()]
        boxes = [b for b in boxes if b is not None]
        if not boxes:
            return None
        return Rect(
            min(b.x_min for b in boxes),
            min(b.y_min for b in boxes),
            max(b.x_max for b in boxes),
            max(b.y_max for b in boxes),
        )


def chamber_layout(chip_width, chip_depth, chamber, port_diameter=1e-3):
    """The Fig. 3 single-layer layout: resist walls around a chamber.

    Builds the standard gasket pattern -- a wall frame between the chip
    outline and the chamber cavity -- plus an inlet and outlet port on
    the lid layer.  Returns a :class:`FluidicLayout` with layers
    ``"resist-walls"`` and ``"lid-ports"``.
    """
    if chamber.width >= chip_width or chamber.depth >= chip_depth:
        raise ValueError("chamber footprint must fit within the chip outline")
    layout = FluidicLayout("dry-film chamber")
    walls = layout.layer("resist-walls")
    x0 = (chip_width - chamber.width) / 2.0
    y0 = (chip_depth - chamber.depth) / 2.0
    x1, y1 = x0 + chamber.width, y0 + chamber.depth
    # four wall strips framing the cavity
    walls.add_rect(0.0, 0.0, chip_width, y0)  # south
    walls.add_rect(0.0, y1, chip_width, chip_depth)  # north
    walls.add_rect(0.0, y0, x0, y1)  # west
    walls.add_rect(x1, y0, chip_width, y1)  # east
    ports = layout.layer("lid-ports")
    half = port_diameter / 2.0
    cx_in, cx_out = x0 + chamber.width * 0.1, x0 + chamber.width * 0.9
    cy = y0 + chamber.depth / 2.0
    ports.add_rect(cx_in - half, cy - half, cx_in + half, cy + half)
    ports.add_rect(cx_out - half, cy - half, cx_out + half, cy + half)
    return layout
