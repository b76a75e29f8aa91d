"""Locally repairable codes (LRC) — an extension from the paper's related
work (Section VI: "Local repairable codes are a new family of erasure codes
that reduce I/O during recovery", deployed by Azure and evaluated on HDFS).

An ``(k, l, g)`` LRC splits the ``k`` data blocks into ``l`` local groups,
adds one *local parity* (the XOR of its group) per group, and ``g`` *global
parities* (Reed-Solomon rows over all ``k`` blocks).  A single lost data
block is repaired from its local group — ``k/l`` reads instead of ``k`` —
which is exactly the cross-rack recovery cost Section III-D of the paper
worries about.

The implementation is generator-matrix based: decoding inverts the rows of
available blocks, so any failure pattern whose surviving rows have full
rank is recovered (this covers all single failures and most multi-failure
patterns up to ``g + 1`` erasures; LRCs are not MDS).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Collection, List, Optional, Tuple

import numpy as np

from repro.erasure import matrix as gfm
from repro.erasure import reed_solomon
from repro.erasure.codec import DECODE_CACHE_SIZE, ErasureCodec
from repro.sim.metrics import PERF


@dataclass(frozen=True)
class LRCParams:
    """Parameters of a ``(k, l, g)`` locally repairable code.

    Attributes:
        k: Data blocks per stripe.
        local_groups: Number of local groups ``l`` (each gets one local
            parity).  Must divide ``k``.
        global_parities: Number of Reed-Solomon global parities ``g``.

    Azure's production code is ``LRCParams(12, 2, 2)``: 16 blocks total,
    1.33x overhead, single-failure repairs read 6 blocks instead of 12.
    """

    k: int
    local_groups: int
    global_parities: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.local_groups < 1 or self.k % self.local_groups:
            raise ValueError("local_groups must divide k")
        if self.global_parities < 1:
            raise ValueError("need at least one global parity")
        if self.n > 256:
            raise ValueError("codes over GF(2^8) support at most n = 256")

    @property
    def n(self) -> int:
        """Total blocks per stripe: data + local + global parities."""
        return self.k + self.local_groups + self.global_parities

    @property
    def group_size(self) -> int:
        """Data blocks per local group."""
        return self.k // self.local_groups

    @property
    def storage_overhead(self) -> float:
        """Redundancy factor ``n / k``."""
        return self.n / self.k

    def group_of(self, data_index: int) -> int:
        """The local group a data block belongs to."""
        if not 0 <= data_index < self.k:
            raise ValueError(f"data index {data_index} outside [0, {self.k})")
        return data_index // self.group_size

    def group_members(self, group: int) -> List[int]:
        """Stripe indices of a group's data blocks."""
        if not 0 <= group < self.local_groups:
            raise ValueError(f"group {group} outside [0, {self.local_groups})")
        start = group * self.group_size
        return list(range(start, start + self.group_size))

    def local_parity_index(self, group: int) -> int:
        """Stripe index of a group's local parity block."""
        if not 0 <= group < self.local_groups:
            raise ValueError(f"group {group} outside [0, {self.local_groups})")
        return self.k + group

    def __str__(self) -> str:
        return f"LRC({self.k},{self.local_groups},{self.global_parities})"


class LocalReconstructionCodec(ErasureCodec):
    """Azure-style LRC over GF(2^8) with byte-level encode/decode/repair.

    Block layout within a stripe: indices ``0..k-1`` are data, ``k..k+l-1``
    the local parities (one per group), ``k+l..n-1`` the global parities.
    Encode, decode, repair and verify are the base codec's; what differs is
    the planning — an LRC is not MDS, so :meth:`decode_plan` searches for a
    full-rank survivor subset, and :meth:`repair_plan` prefers the local
    group's all-ones XOR row, so a single data or local-parity loss reads
    just its group (the LRC selling point).

    Example:
        >>> codec = LocalReconstructionCodec(LRCParams(4, 2, 2))
        >>> parity = codec.encode([b"ab", b"cd", b"ef", b"gh"])
        >>> len(parity)
        4
    """

    scheme = "lrc"

    def __init__(self, params: LRCParams) -> None:
        super().__init__(params)
        # The invertible-subset search is combinatorial in the worst case,
        # so it is LRU-memoised per survivor pattern (the k x k inversion
        # is memoised by the base class).
        self._subset_cache: "OrderedDict[Tuple[int, ...], Optional[Tuple[int, ...]]]" = (
            OrderedDict()
        )

    def _build_generator(self, n: int, k: int) -> np.ndarray:
        p = self.params
        rows: List[np.ndarray] = [gfm.identity(k)]
        local = np.zeros((p.local_groups, k), dtype=np.uint8)
        for group in range(p.local_groups):
            for index in p.group_members(group):
                local[group, index] = 1  # XOR of the group
        rows.append(local)
        # Global parities: the parity rows of a systematic RS code over the
        # k data blocks (any g of them are independent combinations).
        rs_parity = reed_solomon.parity_matrix(k + p.global_parities, k)
        rows.append(rs_parity)
        return np.concatenate(rows, axis=0)

    @property
    def generator(self) -> np.ndarray:
        """The ``n x k`` generator matrix (identity on top)."""
        return self._generator.copy()

    # ------------------------------------------------------------------
    def decode_plan(
        self, indices: Collection[int]
    ) -> Tuple[Tuple[int, ...], gfm.PackedMatrix]:
        """A full-rank ``k``-subset of the survivors and its inverse.

        Raises:
            ValueError: If no ``k`` surviving rows are full rank (too few
                survivors, or a failure pattern that is
                information-theoretically unrecoverable for this LRC).
        """
        ordered = self._survivors(indices)
        subset = self._invertible_subset_cached(ordered)
        if subset is None:
            raise ValueError(
                "failure pattern is unrecoverable for this LRC "
                f"(survivors: {list(ordered)})"
            )
        return subset, self._decode_matrix(subset)

    def repair_plan(
        self, target: int, indices: Collection[int]
    ) -> Tuple[Tuple[int, ...], gfm.PackedMatrix]:
        """The local group and its all-ones XOR row when the whole group
        survives; the global decode row otherwise."""
        local = self._local_sources(target, indices)
        if local is not None:
            return tuple(local), gfm.PackedMatrix(
                np.ones((1, len(local)), dtype=np.uint8)
            )
        return super().repair_plan(target, indices)

    # ------------------------------------------------------------------
    def repair_cost(self, lost_index: int) -> int:
        """Blocks read to repair ``lost_index`` with all others alive.

        ``k/l`` for data and local-parity losses, ``k`` for global ones —
        the comparison the LRC literature (and the extension benchmark)
        makes against plain RS.
        """
        return len(self._local_repair_set(lost_index) or range(self.params.k))

    def _local_repair_set(self, lost_index: int) -> Optional[List[int]]:
        p = self.params
        if not 0 <= lost_index < p.n:
            raise ValueError(f"target index {lost_index} outside the stripe")
        if lost_index < p.k:
            group = p.group_of(lost_index)
        elif lost_index < p.k + p.local_groups:
            group = lost_index - p.k
        else:
            return None  # global parity: needs a global decode
        members = p.group_members(group) + [p.local_parity_index(group)]
        return [i for i in members if i != lost_index]

    def _local_sources(
        self, target: int, indices: Collection[int]
    ) -> Optional[List[int]]:
        """The target's local repair set when every member survives."""
        survivors = self._survivors(indices)
        local = self._local_repair_set(target)
        if local is not None and set(survivors).issuperset(local):
            return local
        return None

    def _invertible_subset_cached(
        self, indices: Tuple[int, ...]
    ) -> Optional[Tuple[int, ...]]:
        """LRU-memoised :meth:`_invertible_subset` keyed by survivor set."""
        if indices in self._subset_cache:
            self._subset_cache.move_to_end(indices)
            PERF.bump("lrc.subset_hits")
            return self._subset_cache[indices]
        PERF.bump("lrc.subset_misses")
        subset = self._invertible_subset(list(indices))
        result = None if subset is None else tuple(subset)
        self._subset_cache[indices] = result
        if len(self._subset_cache) > DECODE_CACHE_SIZE:
            self._subset_cache.popitem(last=False)
        return result

    def _invertible_subset(self, indices: List[int]) -> Optional[List[int]]:
        """Find k available rows forming an invertible matrix."""
        import itertools

        k = self.params.k
        # Fast path: data rows plus whatever parity fills the gaps.
        candidates = sorted(indices, key=lambda i: (i >= k, i))
        head = candidates[:k]
        if gfm.rank(self._generator[head, :]) == k:
            return head
        for subset in itertools.combinations(indices, k):
            if gfm.rank(self._generator[list(subset), :]) == k:
                return list(subset)
        return None
