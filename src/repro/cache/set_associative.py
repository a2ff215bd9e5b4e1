"""A set-associative cache variant for the design-choice ablation.

The paper chooses a *direct-mapped* cache (§3.2, citing Hill's "A Case
for Direct-Mapped Caches") because it fits the Tofino register model:
one hash, one read-modify-write per array, no pointer chasing.  A
set-associative organization with LRU would reduce conflict misses at
the cost of multi-way matching, which Tofino cannot do in registers at
line rate.  Implementing it lets the ablation quantify what the
hardware constraint costs (``benchmarks/test_ablation_cache_geometry``).

The class mirrors :class:`~repro.cache.direct_mapped.DirectMappedCache`'s
interface, including access-bit semantics generalized per entry:

* a hit sets the entry's access bit and refreshes its LRU position;
* a miss that lands in a full set ages (clears the access bit of) the
  set's LRU entry — the multi-way analogue of the direct-mapped
  "conflict miss clears the line's bit";
* conservative admission (``only_if_clear``) refuses to evict when
  every entry in the set has its access bit set.

Like the direct-mapped cache, the class supports the mutation
observation the hybrid-fidelity engine keys on: ``attach_observer``
swaps a live instance to the observed subclass, whose zero-argument
hook fires on every observable state change (new entry, eviction,
invalidation, conflict aging) and stays silent on idempotent refreshes
(hit, value overwrite).  Without it, fluid flows adopted over a
set-associative fabric would replay against stale cache state — and
:meth:`repro.sim.fluid.FluidEngine.scheme_compatible` would refuse the
geometry outright.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.cache.direct_mapped import SLOT_MIX, CacheStats, InsertResult


class SetAssociativeCache:
    """An N-way set-associative VIP -> PIP cache with per-entry A bits.

    Args:
        num_slots: total entries (sets = num_slots // ways; a remainder
            is dropped, matching how a hardware layout would round).
        ways: associativity; 1 behaves like a direct-mapped cache with
            LRU == the single line.
        salt: per-switch hash salt.
    """

    __slots__ = ("num_slots", "ways", "num_sets", "salt", "_sets", "stats",
                 "on_mutate")

    def __init__(self, num_slots: int, ways: int = 2, salt: int = 0) -> None:
        if num_slots < 0:
            raise ValueError(f"negative cache size: {num_slots}")
        if ways < 1:
            raise ValueError(f"associativity must be >= 1, got {ways}")
        self.ways = ways
        self.num_sets = num_slots // ways
        self.num_slots = self.num_sets * ways
        self.salt = salt
        # Each set maps vip -> [pip, abit] in LRU order (oldest first).
        self._sets: list[OrderedDict[int, list[int]]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()
        #: zero-argument observer fired on observable state changes
        #: (see the module docstring); installed via
        #: :meth:`attach_observer`, never fired by this base class.
        self.on_mutate: Callable[[], None] | None = None

    def attach_observer(self, cb: Callable[[], None]) -> None:
        """Install ``cb`` as the mutation observer (hybrid fidelity).

        Swaps the instance to :class:`_ObservedSetAssociativeCache`;
        the unobserved base class carries no observer branches.
        """
        self.on_mutate = cb
        self.__class__ = _ObservedSetAssociativeCache

    def _set_of(self, vip: int) -> OrderedDict[int, list[int]]:
        index = (((vip ^ self.salt) * SLOT_MIX) & 0xFFFFFFFF) % self.num_sets
        return self._sets[index]

    # ------------------------------------------------------------------
    # The observed subclass below duplicates these bodies with the
    # notification added; keep the two in sync.
    def lookup(self, vip: int) -> int | None:
        self.stats.lookups += 1
        if self.num_sets == 0:
            return None
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is not None:
            entry[1] = 1
            entries.move_to_end(vip)
            self.stats.hits += 1
            return entry[0]
        if len(entries) >= self.ways:
            # Age the LRU entry under conflict pressure.
            oldest = next(iter(entries))
            if entries[oldest][1]:
                entries[oldest][1] = 0
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        if self.num_sets == 0:
            self.stats.rejections += 1
            return InsertResult(False, None)
        entries = self._set_of(vip)
        if vip in entries:
            entries[vip][0] = pip
            entries.move_to_end(vip)
            return InsertResult(True, None)
        if len(entries) < self.ways:
            entries[vip] = [pip, 0]
            self.stats.insertions += 1
            return InsertResult(True, None)
        victim = self._pick_victim(entries, only_if_clear)
        if victim is None:
            self.stats.rejections += 1
            return InsertResult(False, None)
        evicted = (victim, entries[victim][0])
        del entries[victim]
        entries[vip] = [pip, 0]
        self.stats.insertions += 1
        self.stats.evictions += 1
        return InsertResult(True, evicted)

    def _pick_victim(self, entries: OrderedDict[int, list[int]],
                     only_if_clear: bool) -> int | None:
        if only_if_clear:
            for vip, entry in entries.items():  # LRU order
                if entry[1] == 0:
                    return vip
            return None
        return next(iter(entries))

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        if self.num_sets == 0:
            return False
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is None:
            return False
        if stale_pip is not None and entry[0] != stale_pip:
            return False
        del entries[vip]
        self.stats.invalidations += 1
        return True

    def corrupt_entry(self, ordinal: int, bit: int) -> tuple[int, int, int] | None:
        """Flip ``bit`` of the value in the ``ordinal``-th occupied entry.

        SRAM soft-error injection; see
        :meth:`repro.cache.direct_mapped.DirectMappedCache.corrupt_entry`.
        Entries are enumerated set by set (LRU order within a set),
        modulo occupancy.  Fires ``on_mutate`` when an observer is
        attached; does not touch LRU position or access bits.

        Returns:
            ``(vip, old_pip, new_pip)``, or None on an empty cache.
        """
        occupied = [(entries, vip) for entries in self._sets for vip in entries]
        if not occupied:
            return None
        entries, vip = occupied[ordinal % len(occupied)]
        entry = entries[vip]
        old = entry[0]
        new = old ^ (1 << bit)
        entry[0] = new
        cb = self.on_mutate
        if cb is not None:
            cb()
        return (vip, old, new)

    # ------------------------------------------------------------------
    def peek(self, vip: int) -> int | None:
        if self.num_sets == 0:
            return None
        entry = self._set_of(vip).get(vip)
        return None if entry is None else entry[0]

    def access_bit(self, vip: int) -> int | None:
        if self.num_sets == 0:
            return None
        entry = self._set_of(vip).get(vip)
        return None if entry is None else entry[1]

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def entries(self) -> list[tuple[int, int, int]]:
        out = []
        for entries in self._sets:
            for vip, (pip, abit) in entries.items():
                out.append((vip, pip, abit))
        return out

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __len__(self) -> int:
        return self.occupancy()


class _ObservedSetAssociativeCache(SetAssociativeCache):
    """A set-associative cache with mutation observation wired in.

    Never constructed directly: :meth:`attach_observer` swaps a live
    cache's ``__class__`` here (empty ``__slots__`` keeps the layouts
    identical).  The bodies mirror the base class plus the
    ``on_mutate`` firing; W402 holds these overrides to the
    escalation contract.
    """

    __slots__ = ()

    def lookup(self, vip: int) -> int | None:
        """Observed :meth:`SetAssociativeCache.lookup`."""
        self.stats.lookups += 1
        if self.num_sets == 0:
            return None
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is not None:
            entry[1] = 1
            entries.move_to_end(vip)
            self.stats.hits += 1
            return entry[0]
        if len(entries) >= self.ways:
            # Age the LRU entry under conflict pressure.
            oldest = next(iter(entries))
            if entries[oldest][1]:
                entries[oldest][1] = 0
                cb = self.on_mutate
                if cb is not None:
                    cb()
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        """Observed :meth:`SetAssociativeCache.insert`."""
        if self.num_sets == 0:
            self.stats.rejections += 1
            return InsertResult(False, None)
        entries = self._set_of(vip)
        if vip in entries:
            entries[vip][0] = pip
            entries.move_to_end(vip)
            return InsertResult(True, None)
        if len(entries) < self.ways:
            entries[vip] = [pip, 0]
            self.stats.insertions += 1
            cb = self.on_mutate
            if cb is not None:
                cb()
            return InsertResult(True, None)
        victim = self._pick_victim(entries, only_if_clear)
        if victim is None:
            self.stats.rejections += 1
            return InsertResult(False, None)
        evicted = (victim, entries[victim][0])
        del entries[victim]
        entries[vip] = [pip, 0]
        self.stats.insertions += 1
        self.stats.evictions += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return InsertResult(True, evicted)

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        """Observed :meth:`SetAssociativeCache.invalidate`."""
        if self.num_sets == 0:
            return False
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is None:
            return False
        if stale_pip is not None and entry[0] != stale_pip:
            return False
        del entries[vip]
        self.stats.invalidations += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return True
