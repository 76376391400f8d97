"""Protocol fingerprints against the string form they replaced.

``parent_fingerprint`` is ``Protocol.fingerprint`` as it was: one
``field=value`` string per dataclass field, containers joined
recursively, the strings joined and hashed.  The digest format has
changed, so digests are not compared; what must hold is that two
protocols share a new digest exactly when they shared an old one.
"""

import dataclasses
import hashlib
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Protocol
from repro.bio import mammalian_cell, polystyrene_bead
from repro.core.registry import CommandRegistry, CommandSpec, default_registry

# -- the oracle: the string form before the change ---------------------------


def _parent_layout(cmd_type):
    field_names = None
    if dataclasses.is_dataclass(cmd_type):
        field_names = tuple(f.name for f in dataclasses.fields(cmd_type))
    return cmd_type.__name__, field_names


def _parent_canonical(value, rename):
    if isinstance(value, str):
        return repr(rename.get(value, value))
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_parent_canonical(v, rename) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(
            (_parent_canonical(k, rename), _parent_canonical(v, rename))
            for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return repr(value)


def parent_fingerprint(protocol, registry):
    rename = {}
    specs = []
    for cmd in protocol.commands:
        spec = registry.get(type(cmd))
        specs.append(spec)
        if spec is None:
            continue
        for handle in spec.defined_handles(cmd):
            rename.setdefault(handle, f"\x00{len(rename)}")
    no_rename = {}
    tokens = []
    for cmd, spec in zip(protocol.commands, specs):
        handle_fields = getattr(spec, "handle_fields", ()) if spec else ()
        name, field_names = _parent_layout(type(cmd))
        tokens.append(name)
        if field_names is None:
            tokens.append(repr(cmd))
            continue
        for field_name in field_names:
            value = getattr(cmd, field_name)
            scope = rename if field_name in handle_fields else no_rename
            tokens.append(f"{field_name}={_parent_canonical(value, scope)}")
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8"))
    return digest.hexdigest()[:16]


# -- third-party commands -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Tag:
    """A registered command whose handle references sit in a list and a
    dict, beside a payload that holds lists, dicts and strings too."""

    targets: object
    routes: object
    payload: object = None


class TagSpec(CommandSpec):
    handle_fields = ("targets", "routes")


@dataclasses.dataclass(frozen=True)
class Note:
    """A dataclass command no registry knows: hashed verbatim."""

    text: str
    level: int = 0


class Marker:
    """A non-dataclass command, hashed by its ``repr``."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"Marker({self.label!r})"


REGISTRY = CommandRegistry()
for cmd_type in default_registry.command_types():
    REGISTRY.register(cmd_type, default_registry.get(cmd_type))
REGISTRY.register(Tag, TagSpec)

# -- generated protocols ------------------------------------------------------

HANDLES = ["a", "b", "c", "cell", "\x000", "\x001"]
SITES = [(2, 2), (2, 4), [2, 4], (4, 2)]
PARTICLES = [None, mammalian_cell(), polystyrene_bead()]
# payload values: equal-looking pairs across types and containers
# (handle names inside a payload container are payload, never renamed)
PAYLOADS = [None, 0, 0.0, False, "0", "a", (1, 2), [1, 2], {"k": 1},
            {"k": (1, 2)}, {1: "a"}, ("a", ["b"]), ["cell"], {"a": "c"},
            b"a", 1.5]


@st.composite
def commands(draw):
    """One command: any built-in, the registered ``Tag``, the
    unregistered ``Note`` or the non-dataclass ``Marker``."""
    handle = st.sampled_from(HANDLES)
    kind = draw(st.sampled_from([
        "trap", "trap", "move", "move_many", "merge", "sense", "sense_all",
        "incubate", "release", "tag", "note", "marker"]))
    if kind == "trap":
        return "trap", (draw(handle), draw(st.sampled_from(SITES)),
                        draw(st.sampled_from(PARTICLES)))
    if kind == "move":
        return "move", (draw(handle), draw(st.sampled_from(SITES)))
    if kind == "move_many":
        pairs = draw(st.lists(st.tuples(handle, st.sampled_from(SITES)),
                              min_size=1, max_size=3))
        return "move_many", (pairs, draw(st.booleans()))
    if kind == "merge":
        return "merge", (draw(handle), draw(handle))
    if kind == "sense":
        # store_as is a payload: a handle's name or an alias lookalike
        return "sense", (draw(handle), draw(st.sampled_from([1, 2, 1.0])),
                         draw(st.sampled_from([None] + HANDLES)))
    if kind == "sense_all":
        return "sense_all", (draw(st.sampled_from([1, 2])),
                             draw(st.sampled_from([None, "a", "\x000"])))
    if kind == "incubate":
        return "incubate", (draw(handle), draw(st.sampled_from([1.0, 2.0])))
    if kind == "release":
        return "release", (draw(handle),)
    if kind == "tag":
        targets = draw(st.lists(handle, max_size=2))
        if draw(st.booleans()):
            targets = tuple(targets)
        routes = {draw(handle): draw(st.sampled_from(SITES))}
        return "tag", (targets, routes, draw(st.sampled_from(PAYLOADS)))
    if kind == "note":
        return "note", (draw(st.sampled_from(HANDLES)),
                        draw(st.sampled_from([0, 1])))
    return "marker", (draw(st.sampled_from(HANDLES)),)


def build(steps, names=None):
    """The protocol of ``steps``, each handle renamed through ``names``."""
    names = names or {}

    def n(handle):
        return names.get(handle, handle)

    protocol = Protocol("drawn")
    for kind, args in steps:
        if kind == "trap":
            protocol.trap(n(args[0]), args[1], particle=args[2])
        elif kind == "move":
            protocol.move(n(args[0]), args[1])
        elif kind == "move_many":
            pairs, as_dict = args
            renamed = [(n(h), goal) for h, goal in pairs]
            protocol.move_many(dict(renamed) if as_dict else renamed)
        elif kind == "merge":
            protocol.merge(n(args[0]), n(args[1]))
        elif kind == "sense":
            protocol.sense(n(args[0]), samples=args[1], store_as=args[2])
        elif kind == "sense_all":
            protocol.sense_all(samples=args[0], store_as=args[1])
        elif kind == "incubate":
            protocol.incubate(n(args[0]), args[1])
        elif kind == "release":
            protocol.release(n(args[0]))
        elif kind == "tag":
            targets, routes, payload = args
            renamed = type(targets)(n(h) for h in targets)
            protocol.add(Tag(renamed, {n(h): s for h, s in routes.items()},
                             payload))
        elif kind == "note":
            protocol.add(Note(*args))
        else:
            protocol.add(Marker(*args))
    return protocol


@st.composite
def protocol_families(draw):
    """A few drawn protocols, each beside renamed and edited copies."""
    family = []
    for __ in range(draw(st.integers(1, 3))):
        steps = draw(st.lists(commands(), min_size=1, max_size=6))
        family.append(build(steps))
        # every handle renamed, possibly onto another drawn name
        shuffled = draw(st.permutations(HANDLES))
        family.append(build(steps, dict(zip(HANDLES, shuffled))))
        fresh = {h: f"{h}-x" for h in HANDLES}
        family.append(build(steps, fresh))
        # one command redrawn
        index = draw(st.integers(0, len(steps) - 1))
        edited = list(steps)
        edited[index] = draw(commands())
        family.append(build(edited))
    return family


class TestSameClassesAsTheStringForm:
    @given(family=protocol_families())
    @settings(max_examples=300, deadline=None)
    def test_two_protocols_share_a_digest_exactly_when_they_did(self, family):
        old = [parent_fingerprint(p, REGISTRY) for p in family]
        new = [p.fingerprint(registry=REGISTRY) for p in family]
        for i, j in itertools.combinations(range(len(family)), 2):
            assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)

    def test_lists_and_tuples_hash_alike_as_before(self):
        a = Protocol("p").add(Tag(["a"], {}, [1, (2, "x")]))
        b = Protocol("p").add(Tag(("a",), {}, ((1, [2, "x"]))))
        assert parent_fingerprint(a, REGISTRY) == parent_fingerprint(b, REGISTRY)
        assert a.fingerprint(registry=REGISTRY) == b.fingerprint(
            registry=REGISTRY)

    def test_handle_names_in_a_payload_container_are_not_renamed(self):
        a = (Protocol("p").trap("a", (2, 2))
             .add(Tag(("a",), {}, ["a"])).release("a"))
        b = (Protocol("p").trap("z", (2, 2))
             .add(Tag(("z",), {}, ["a"])).release("z"))
        c = (Protocol("p").trap("z", (2, 2))
             .add(Tag(("z",), {}, ["z"])).release("z"))
        for x, y, same in ((a, b, True), (a, c, False)):
            assert (parent_fingerprint(x, REGISTRY)
                    == parent_fingerprint(y, REGISTRY)) is same
            assert (x.fingerprint(registry=REGISTRY)
                    == y.fingerprint(registry=REGISTRY)) is same

    def test_a_string_never_hashes_like_an_object_with_its_text(self):
        a = Protocol("p").add(Tag((), {}, "Marker('a')"))
        b = Protocol("p").add(Tag((), {}, Marker("a")))
        assert a.fingerprint(registry=REGISTRY) != b.fingerprint(
            registry=REGISTRY)

    def test_a_dict_never_hashes_like_its_items(self):
        a = Protocol("p").add(Tag((), {}, {"k": 1}))
        b = Protocol("p").add(Tag((), {}, (("k", 1),)))
        assert a.fingerprint(registry=REGISTRY) != b.fingerprint(
            registry=REGISTRY)

    def test_the_digest_is_sixteen_hex_digits_and_repeats(self):
        protocol = build([("trap", ("a", (2, 2), None)), ("release", ("a",))])
        digest = protocol.fingerprint()
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert build(list(protocol_steps_of(protocol))).fingerprint() == digest


def protocol_steps_of(protocol):
    """The drawn steps of a trap/release protocol (for the repeat test)."""
    for cmd in protocol.commands:
        if type(cmd).__name__ == "TrapCmd":
            yield "trap", (cmd.handle, cmd.site, cmd.particle)
        else:
            yield "release", (cmd.handle,)


@dataclasses.dataclass
class Settable:
    """A payload whose fields can be reassigned."""

    level: int = 0


@dataclasses.dataclass(frozen=True)
class Holder:
    """A frozen payload holding a list, which can still change."""

    items: list


class TestRememberedReprs:
    """A leaf's ``repr`` is remembered only while it cannot change, and
    only for a bounded number of leaves."""

    def fingerprint(self, payload):
        return Protocol("p").add(Tag((), {}, payload)).fingerprint(
            registry=REGISTRY)

    def test_a_settable_leaf_is_read_again(self):
        payload = Settable(1)
        before = self.fingerprint(payload)
        payload.level = 2
        assert self.fingerprint(payload) != before
        assert self.fingerprint(payload) == self.fingerprint(Settable(2))

    def test_a_frozen_leaf_holding_a_list_is_read_again(self):
        payload = Holder([1])
        before = self.fingerprint(payload)
        payload.items.append(2)
        assert self.fingerprint(payload) != before
        assert self.fingerprint(payload) == self.fingerprint(Holder([1, 2]))

    def test_equal_particles_hash_alike_shared_or_not(self):
        shared = polystyrene_bead()
        a = Protocol("p").trap("h", (2, 2), shared).release("h")
        b = Protocol("p").trap("h", (2, 2), shared).release("h")
        c = Protocol("p").trap("h", (2, 2), polystyrene_bead()).release("h")
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()

    def test_the_memo_stays_bounded(self):
        from repro.core import protocol as module

        for i in range(3 * module._REPRS_SIZE):
            bead = dataclasses.replace(polystyrene_bead(), radius=1e-6 * (i + 1))
            Protocol("p").trap("h", (2, 2), bead).release("h").fingerprint()
            assert len(module._REPRS) <= module._REPRS_SIZE
