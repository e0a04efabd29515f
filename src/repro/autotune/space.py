"""The optimization space of Table II.

``default_space`` reproduces the paper's explored grid exactly:

==========================  =========================================
Optimization                Configurations
==========================  =========================================
Loop order                  one tree at a time / one row at a time
Tile size                   1, 2, 4, 8
Tiling type                 basic / probability-based (hybrid policy)
Tree padding and unrolling  yes / no
Tree walk interleaving      2, 4, 8
⟨alpha, beta⟩ for leaf bias  ⟨0.05,0.9⟩, ⟨0.075,0.9⟩, ⟨0.1,0.9⟩
==========================  =========================================

plus the layout axis of Section V-B. ``extended=True`` widens the
interleave axis (the CPython backend amortizes per-step overhead over
wider jams than native code needs).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.config import Schedule


@dataclass(frozen=True)
class TuningSpace:
    """Axes of the schedule grid."""

    loop_orders: tuple[str, ...] = ("one-tree",)
    tile_sizes: tuple[int, ...] = (1, 2, 4, 8)
    tilings: tuple[str, ...] = ("basic", "hybrid")
    pad_and_unroll: tuple[bool, ...] = (True, False)
    interleaves: tuple[int, ...] = (2, 4, 8)
    alphas: tuple[float, ...] = (0.05, 0.075, 0.1)
    layouts: tuple[str, ...] = ("sparse", "array")
    beta: float = 0.9
    #: numeric representations to explore; the default stays float64-only
    #: (quantized kernels trade bounded leaf rounding for footprint, an
    #: accuracy decision the user opts into rather than the tuner)
    precisions: tuple[str, ...] = ("float64",)
    #: code-generation backends (names from :mod:`repro.backend.registry`);
    #: empty = the base schedule's own, so candidates are measured on the
    #: backend that will serve them — name several to time them side by side
    backends: tuple[str, ...] = ()
    #: hot-depth cutoffs for profile-guided hot/cold splitting
    #: (:mod:`repro.pgo`); the default stays singleton ``None`` — widen to
    #: e.g. ``(None, "auto", 2)`` to let the tuner time split kernels
    pgo: tuple = (None,)

    def size(self) -> int:
        n = (
            len(self.loop_orders)
            * len(self.tile_sizes)
            * len(self.tilings)
            * len(self.pad_and_unroll)
            * len(self.interleaves)
            * len(self.layouts)
            * max(1, len(self.precisions))
            * max(1, len(self.pgo))
        )
        # Alphas only matter for the hybrid tiling points.
        hybrid = sum(1 for t in self.tilings if t == "hybrid")
        plain = len(self.tilings) - hybrid
        per_alpha = n // len(self.tilings)
        total = per_alpha * plain + per_alpha * hybrid * len(self.alphas)
        return total * max(1, len(self.backends))


def default_space(extended: bool = False, multicore: int = 1) -> TuningSpace:
    """The paper's Table-II grid (optionally extended for this backend)."""
    interleaves = (2, 4, 8, 16, 32) if extended else (2, 4, 8)
    __ = multicore  # parallel degree is applied after tuning, not searched
    return TuningSpace(interleaves=interleaves)


def schedule_grid(space: TuningSpace | None = None, base: Schedule | None = None) -> Iterator[Schedule]:
    """Yield every schedule in ``space``, based on ``base`` for fixed fields."""
    space = space or default_space()
    base = base or Schedule()
    for backend in space.backends or (base.backend,):
        for precision in space.precisions or (base.precision,):
            for loop_order in space.loop_orders:
                for layout in space.layouts:
                    for tile_size in space.tile_sizes:
                        for tiling in space.tilings:
                            alphas = (
                                space.alphas if tiling == "hybrid" else (base.alpha,)
                            )
                            for alpha in alphas:
                                for pad in space.pad_and_unroll:
                                    for interleave in space.interleaves:
                                        for pgo in space.pgo or (base.pgo,):
                                            yield base.with_(
                                                precision=precision,
                                                loop_order=loop_order,
                                                layout=layout,
                                                tile_size=tile_size,
                                                tiling=tiling,
                                                alpha=alpha,
                                                beta=space.beta,
                                                pad_and_unroll=pad,
                                                peel_walk=True,
                                                interleave=interleave,
                                                backend=backend,
                                                pgo=pgo,
                                            )
