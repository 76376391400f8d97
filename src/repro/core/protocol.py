"""The protocol DSL: assays as programs over named cage handles.

A :class:`Protocol` is an ordered list of typed commands over string
handles ("cellA", "bead3").  It is the user-facing layer: biologists
think in trap/move/merge/sense/release steps, and the compiler lowers
those to a scheduled, routed, frame-level program for the chip.

Command semantics (validation, lowering, execution) live in per-command
specs dispatched through :mod:`repro.core.registry`; this module only
defines the command payloads and the builder.  New command types plug in
by registering a spec -- no core file changes needed.

Example::

    protocol = (
        Protocol("pairing")
        .trap("cell", site=(10, 10), particle=cell)
        .trap("bead", site=(10, 30), particle=bead)
        .move("cell", (20, 20))
        .merge("cell", "bead")
        .sense("cell", samples=2000)
        .release("cell")
    )
    protocol.validate()
"""

from __future__ import annotations

import dataclasses
import hashlib
import marshal
import operator
from dataclasses import dataclass, field

from .errors import ProtocolError


@dataclass(frozen=True)
class TrapCmd:
    handle: str
    site: tuple
    particle: object = None


@dataclass(frozen=True)
class MoveCmd:
    handle: str
    goal: tuple


@dataclass(frozen=True)
class MergeCmd:
    keep: str
    absorb: str


@dataclass(frozen=True)
class SenseCmd:
    handle: str
    samples: int = 1000
    store_as: str | None = None


@dataclass(frozen=True)
class IncubateCmd:
    handle: str
    seconds: float


@dataclass(frozen=True)
class ReleaseCmd:
    handle: str


@dataclass(frozen=True)
class MoveManyCmd:
    """Route a group of cages concurrently, one frame update per step.

    ``moves`` is a tuple of ``(handle, goal)`` pairs; the whole group
    advances together, as on the real chip where a single frame
    reprogram shifts thousands of DEP cages at once.
    """

    moves: tuple  # ((handle, (row, col)), ...)

    @property
    def goals(self) -> dict:
        """Mapping handle -> goal site."""
        return dict(self.moves)


@dataclass(frozen=True)
class SenseAllCmd:
    """Array-wide sensor scan reading every live cage in one pass."""

    samples: int = 1000
    store_as: str | None = None


#: All built-in command types (kept for backward compatibility; the
#: authoritative set is ``default_registry.command_types()``).
COMMAND_TYPES = (
    TrapCmd,
    MoveCmd,
    MergeCmd,
    SenseCmd,
    IncubateCmd,
    ReleaseCmd,
    MoveManyCmd,
    SenseAllCmd,
)


@dataclass
class Protocol:
    """An ordered assay program over named cage handles."""

    name: str
    commands: list = field(default_factory=list)

    # -- builder API ---------------------------------------------------------

    def trap(self, handle, site, particle=None) -> "Protocol":
        """Create a cage named ``handle`` at ``site`` (optionally loaded)."""
        self.commands.append(TrapCmd(handle, tuple(site), particle))
        return self

    def move(self, handle, goal) -> "Protocol":
        """Route the handle's cage to ``goal``."""
        self.commands.append(MoveCmd(handle, tuple(goal)))
        return self

    def move_many(self, moves) -> "Protocol":
        """Route several handles concurrently in one frame-parallel step.

        ``moves`` is a mapping handle -> goal or an iterable of
        ``(handle, goal)`` pairs.
        """
        if isinstance(moves, dict):
            pairs = moves.items()
        else:
            pairs = moves
        self.commands.append(
            MoveManyCmd(tuple((handle, tuple(goal)) for handle, goal in pairs))
        )
        return self

    def merge(self, keep, absorb) -> "Protocol":
        """Fuse ``absorb``'s cage into ``keep``'s; ``absorb`` dies."""
        self.commands.append(MergeCmd(keep, absorb))
        return self

    def sense(self, handle, samples=1000, store_as=None) -> "Protocol":
        """Read the sensor under the handle's cage with averaging."""
        self.commands.append(SenseCmd(handle, samples, store_as))
        return self

    def sense_all(self, samples=1000, store_as=None) -> "Protocol":
        """Scan the whole array, reading every live cage at once."""
        self.commands.append(SenseAllCmd(samples, store_as))
        return self

    def incubate(self, handle, seconds) -> "Protocol":
        """Hold the handle's cage in place for ``seconds``."""
        self.commands.append(IncubateCmd(handle, float(seconds)))
        return self

    def release(self, handle) -> "Protocol":
        """Open the handle's cage; the handle becomes dead."""
        self.commands.append(ReleaseCmd(handle))
        return self

    def add(self, command) -> "Protocol":
        """Append an arbitrary (possibly third-party) command object."""
        self.commands.append(command)
        return self

    # -- queries -------------------------------------------------------------

    def __len__(self):
        return len(self.commands)

    def handles(self, registry=None):
        """All handles ever defined, in definition order."""
        registry = registry or (_REGISTRY or _registry())[0]
        seen = []
        for cmd in self.commands:
            spec = registry.get(type(cmd))
            if spec is None:
                continue
            for handle in spec.defined_handles(cmd):
                if handle not in seen:
                    seen.append(handle)
        return seen

    def fingerprint(self, registry=None) -> str:
        """Stable structure-only hash of the command sequence.

        Two protocols fingerprint identically exactly when they execute
        the same command types with the same payloads in the same order
        -- regardless of the protocol's ``name`` or what its handles are
        called.  Handles are canonicalised to their definition index, so
        ``trap("cell", ...)`` and ``trap("bead", ...)`` hash the same
        when everything else matches.  The hash is order-sensitive:
        swapping two commands changes it.

        Renaming applies only to the fields each command's registered
        spec declares in ``handle_fields``; every other field --
        ``store_as`` keys, string payloads -- is hashed verbatim even
        when its value collides with a handle name.  Commands with no
        registered spec, and non-dataclass command objects, are hashed
        fully verbatim (their handle names count as payload; a
        non-dataclass command hashes by ``repr``), which can only cost
        cache hits, never produce false ones.

        The digest is one sha256 over one serialisation of a flat list:
        per command, its type's name and field names, then each field's
        value as :func:`_canonical` makes it (a type's name and field
        names fix how many values follow them, so the list reads back
        one way only).  ``marshal`` writes the list at version 0, which
        reads each value's type and contents only (no sharing
        references, no string interning), so equal lists always give
        equal bytes.

        This is the compiled-program cache key used by
        :mod:`repro.service.cache` (combined with the grid shape), but
        it stands alone as a cheap protocol-identity check.
        """
        if not registry:
            registry = (_REGISTRY or _registry())[0]
        commands = self.commands
        specs = list(map(registry.get, map(type, commands)))
        rename = {}
        for cmd, spec in zip(commands, specs):
            if spec is None:
                continue
            for handle in spec.defined_handles(cmd):
                # the NUL prefix makes aliases unspellable as literal
                # handle strings, so an undefined handle reference can
                # never collide with another protocol's alias
                rename.setdefault(handle, f"\x00{len(rename)}")
        tokens = []
        for cmd, spec in zip(commands, specs):
            handle_fields = getattr(spec, "handle_fields", ()) if spec else ()
            try:
                head, getter, handles = _LAYOUTS[type(cmd), handle_fields]
            except (KeyError, TypeError):
                head, getter, handles = _layout(type(cmd), handle_fields)
            tokens.append(head)
            if getter is None:
                tokens.append([repr(cmd)])
                continue
            for value, is_handle in zip(getter(cmd), handles):
                kind = type(value)
                if kind is str:
                    if is_handle:
                        value = rename.get(value, value)
                elif kind in _ATOMS or (
                        kind is tuple and _ATOMS.issuperset(map(type, value))):
                    pass  # nothing to rename or to convert
                else:
                    value = _canonical(value, rename if is_handle else {})
                tokens.append(value)
        digest = hashlib.sha256(marshal.dumps(tokens, 0))
        return digest.hexdigest()[:16]

    # -- validation ------------------------------------------------------------

    def validate(self, registry=None) -> bool:
        """Static checks: define-before-use, single definition, no
        use-after-release/merge, positive parameters.

        Each command's checks come from its registered spec; an
        unregistered command type is itself a validation error.  Raises
        :class:`~repro.core.errors.ProtocolError` on the first problem;
        returns True when clean.
        """
        default, new_state = _REGISTRY or _registry()
        registry = registry or default
        state = new_state()
        for index, cmd in enumerate(self.commands):
            where = f"command #{index} ({type(cmd).__name__})"
            spec = registry.get(type(cmd))
            if spec is None:
                raise ProtocolError(f"{where}: unknown command type")
            spec.validate(cmd, state, where)
        return True


#: ``(default_registry, ValidationState)`` of :mod:`repro.core.registry`,
#: which imports this module: bound by :func:`_registry` on first use,
#: so a call pays no import statement
_REGISTRY = None


def _registry():
    """Bind and return :data:`_REGISTRY`."""
    global _REGISTRY
    from .registry import ValidationState, default_registry

    _REGISTRY = (default_registry, ValidationState)
    return _REGISTRY


#: (command type, its spec's handle fields) -> the command's layout,
#: found once per pair by :func:`_layout`
_LAYOUTS = {}

#: Exact types :func:`_canonical` keeps as they are: nothing in them to
#: rename, and ``marshal`` writes each by its value.
_ATOMS = frozenset({int, float, bool, complex, bytes, type(None)})


def _layout(cmd_type, handle_fields):
    """How :meth:`Protocol.fingerprint` reads a command of
    ``cmd_type``: ``(head, getter, handles)``.  The head is the type's
    name and dataclass field names, pre-serialised; the getter returns
    the fields' values as a tuple, and ``handles`` flags each field
    named in ``handle_fields``.  A non-dataclass type has no field
    names, getter or flags."""
    if dataclasses.is_dataclass(cmd_type):
        names = tuple(f.name for f in dataclasses.fields(cmd_type))
        layout = (
            _serialised((cmd_type.__name__, names)),
            _values_getter(names),
            tuple(name in handle_fields for name in names),
        )
    else:
        layout = (_serialised((cmd_type.__name__, None)), None, None)
    try:
        _LAYOUTS[cmd_type, handle_fields] = layout
    except TypeError:
        pass  # unhashable handle fields (a list, say): found every call
    return layout


def _values_getter(names):
    """A function returning an object's ``names`` attributes as a
    tuple."""
    if len(names) == 1:
        (name,) = names
        return lambda cmd: (getattr(cmd, name),)
    if names:
        return operator.attrgetter(*names)
    return lambda cmd: ()


def _canonical(value, rename):
    """``value`` as :meth:`Protocol.fingerprint` hashes it.

    A string naming a defined handle (a key of ``rename``) becomes its
    alias; tuples and lists, subclasses included, become plain tuples
    and a dict ``{None: its items sorted}``, their contents canonical
    too, so handle references nested in e.g. ``MoveManyCmd.moves`` are
    renamed.  Exact atoms (:data:`_ATOMS`) and strings are kept.  Any
    other value becomes the one-item list of its ``repr``: lists and
    dicts occur nowhere else in a canonical value, so such a value
    never hashes like a string, tuple or dict.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is str:
        return rename.get(value, value)
    if kind is tuple and _ATOMS.issuperset(map(type, value)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple([
            v if type(v) in _ATOMS
            else rename.get(v, v) if type(v) is str
            else v if type(v) is tuple and _ATOMS.issuperset(map(type, v))
            else _canonical(v, rename)
            for v in value
        ])
    if isinstance(value, dict):
        items = [(_canonical(k, rename), _canonical(v, rename))
                 for k, v in value.items()]
        return {None: tuple(sorted(items, key=_serialised))}
    if isinstance(value, str):
        value = rename.get(value, value)
        if type(value).__repr__ is str.__repr__:
            return str.__str__(value)  # a plain copy: marshal takes no subclass
    return [_leaf_repr(value)]


#: id(leaf) -> (the leaf, its ``repr``) for leaves that cannot change
#: (:func:`_unchanging`); emptied when it reaches ``_REPRS_SIZE``.
_REPRS = {}
_REPRS_SIZE = 64


def _leaf_repr(value):
    """``repr(value)``, remembered while ``value`` lives in
    :data:`_REPRS`.  Protocols tend to share their particle objects,
    and a particle's dataclass ``repr`` is the costliest token of a
    fingerprint; the entry holds the leaf, so its id is not reused."""
    entry = _REPRS.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    text = repr(value)
    if _unchanging(value):
        if len(_REPRS) >= _REPRS_SIZE:
            _REPRS.clear()
        _REPRS[id(value)] = (value, text)
    return text


def _unchanging(value):
    """True when ``value``'s ``repr`` is fixed for its lifetime: an
    atom, a string, a tuple of such values or a frozen dataclass
    instance whose fields all hold such values."""
    kind = type(value)
    if kind in _ATOMS or kind is str:
        return True
    if kind is tuple:
        return all(map(_unchanging, value))
    params = getattr(kind, "__dataclass_params__", None)
    return bool(params and params.frozen) and all(
        _unchanging(getattr(value, f.name)) for f in dataclasses.fields(kind))


def _serialised(value):
    return marshal.dumps(value, 0)


def viability_sort_protocol(pairs, left_column, right_column, samples=2000):
    """Canonical example protocol: sort (handle, particle, site, viable)
    tuples to the left/right bank by their known class, sensing each.

    Parameters
    ----------
    pairs:
        Iterable of (handle, particle, site, is_left) tuples.
    left_column, right_column:
        Target columns for the two classes.
    """
    protocol = Protocol("viability-sort")
    rows = {}
    for handle, particle, site, is_left in pairs:
        protocol.trap(handle, site, particle)
        rows[handle] = (site[0], is_left)
    for handle, particle, site, is_left in pairs:
        protocol.sense(handle, samples=samples)
        target_col = left_column if is_left else right_column
        protocol.move(handle, (site[0], target_col))
    for handle, __, __, __ in pairs:
        protocol.release(handle)
    protocol.validate()
    return protocol
