"""A bounded, lock-guarded LRU memo shared by the chip and the compiler."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruMemo(OrderedDict):
    """A bounded LRU: key -> entry, least recently used out first.

    A lookup and a store each hold a lock.  Memos are shared across
    threads -- a chip template's plan memo by every chip spawned from
    it, the compiler's schedule memo by every compile in the process --
    and the wall-clock tier runs chips on worker threads, where one
    thread's eviction could otherwise drop a key between another's
    ``get`` and ``move_to_end``.
    """

    def __init__(self, size):
        super().__init__()
        self.size = size
        self._lock = threading.Lock()

    def __reduce__(self):
        # a lock does not pickle: a copy gets the entries and a new lock
        return type(self), (self.size,), None, None, iter(self.items())

    def lookup(self, key):
        """The entry stored under ``key`` (now the most recently used),
        or None."""
        with self._lock:
            entry = self.get(key)
            if entry is not None:
                self.move_to_end(key)
            return entry

    def store(self, key, entry):
        """Store ``entry`` under ``key``, evicting the least recently
        used entry beyond :attr:`size`."""
        with self._lock:
            self[key] = entry
            if len(self) > self.size:
                self.popitem(last=False)
