"""Splice singular values or vectors between two checkpoints.

A surgery keeps one checkpoint as the host, takes the selected spectral part
from the donor, and writes the edited model. One `SurgeryPlan` describes one
restore run: a host, a donor, a mode and the matrix kinds, plus a grid of
(layers, ranks) selections, each of which writes its own checkpoint. A run
streams: every grid point's checkpoint is started before the first matrix
is loaded, and each edit is written into it as soon as it is mixed, so
peak memory is set by the largest matrix, not by the number of layers or
grid points. Each restore decision is made once: the plan resolves which
ranks every grid point edits in every matrix (`plan_selection`), and each
output's writer narrows its edits to the dtype of their slot.
Pairing of singular directions is by rank index after canonical sorting;
mixed column sets are used as-is, with no re-orthogonalization, so the
report flags matrices whose selection boundary falls inside a
near-degenerate gap.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .spectral import SvdTriple, boundary_gap, procrustes, svd
from .tensorstore import (
    DEFAULT_SURGERY_KINDS,
    Checkpoint,
    CheckpointWriter,
    MatrixKey,
    NamingProfile,
    pair_matrices,
    run_pairs,
    write_checkpoint,
)

MODES = ("values", "vectors")
ALIGNMENTS = ("none", "procrustes")


# ---------------------------------------------------------------------------
# selection


def _count(text: str, axis: str, selector: str) -> int:
    """A count of a `selector` text: ASCII digits, with outer whitespace allowed."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"bad {axis} selector {selector!r}: {text!r} is not a count "
                              "in ASCII digits")
    return int(text)


@dataclass(frozen=True)
class LayerSelector:
    """Which decoder layers a surgery touches: all / first:k / last:k / list:i,j,..."""

    rule: str
    count: int = 0
    indices: tuple[int, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "LayerSelector":
        text = text.strip().lower()
        if text == "all":
            return cls(rule="all")
        rule, _, counts = text.partition(":")
        if rule in ("first", "last"):
            return cls(rule=rule, count=_count(counts, "layer", text))
        if rule == "list":
            indices = {_count(i, "layer", text) for i in counts.split(",")}
            return cls(rule="list", indices=tuple(sorted(indices)))
        raise ValidationError(f"bad layer selector {text!r}; use all|first:K|last:K|list:I,J")

    def resolve(self, available: list[int]) -> set[int]:
        ordered = sorted(available)
        if self.rule == "all":
            return set(ordered)
        if self.rule == "first":
            return set(ordered[: self.count])
        if self.rule == "last":
            return set(ordered[len(ordered) - self.count:]) if self.count else set()
        return set(self.indices) & set(ordered)

    def __str__(self) -> str:
        if self.rule == "all":
            return "all"
        if self.rule == "list":
            return "list:" + ",".join(str(i) for i in self.indices)
        return f"{self.rule}:{self.count}"


@dataclass(frozen=True)
class RankSelector:
    """Which singular ranks to splice: all / top:k / bottom:k / range:a:b (half-open)."""

    rule: str
    count: int = 0
    lo: int = 0
    hi: int = 0

    @classmethod
    def parse(cls, text: str) -> "RankSelector":
        text = text.strip().lower()
        if text == "all":
            return cls(rule="all")
        rule, _, counts = text.partition(":")
        if rule in ("top", "bottom"):
            return cls(rule=rule, count=_count(counts, "rank", text))
        if rule == "range":
            lo, _, hi = counts.partition(":")
            lo, hi = _count(lo, "rank", text), _count(hi, "rank", text)
            if lo > hi:
                raise ValidationError(f"range needs A <= B in {text!r}")
            return cls(rule="range", lo=lo, hi=hi)
        raise ValidationError(f"bad rank selector {text!r}; use all|top:K|bottom:K|range:A:B")

    def resolve(self, thin_rank: int) -> np.ndarray:
        """Indices clamped to [0, thin_rank)."""
        if self.rule == "all":
            return np.arange(thin_rank)
        if self.rule == "top":
            return np.arange(min(self.count, thin_rank))
        if self.rule == "bottom":
            return np.arange(max(0, thin_rank - self.count), thin_rank)
        return np.arange(min(self.lo, thin_rank), min(self.hi, thin_rank))

    def __str__(self) -> str:
        if self.rule == "all":
            return "all"
        if self.rule == "range":
            return f"range:{self.lo}:{self.hi}"
        return f"{self.rule}:{self.count}"


#: (key, host tensor, donor tensor, host loader, donor loader), from `pair_matrices`
Target = tuple[MatrixKey, str, str, Callable, Callable]


@dataclass
class SurgeryPlan:
    """One restore run: grid point i selects `grid[i]` and writes its own checkpoint.

    Its `kinds` are checked against the profile by the walk `plan_selection` runs.
    """

    mode: str  # one of MODES
    donor: Checkpoint
    host: Checkpoint
    profile: NamingProfile
    grid: list[tuple[LayerSelector, RankSelector]]
    kinds: tuple[str, ...] = DEFAULT_SURGERY_KINDS
    align: str = "none"  # one of ALIGNMENTS; "procrustes" is vectors mode only, experimental
    #: from `plan_selection`: each matrix to edit, with its ranks per grid point
    targets: list[tuple[Target, list[np.ndarray | None]]] = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.align not in ALIGNMENTS:
            raise ValidationError(f"align must be one of {ALIGNMENTS}, got {self.align!r}")
        if self.align == "procrustes" and self.mode != "vectors":
            raise ValidationError("align 'procrustes' needs mode 'vectors'; values mode keeps "
                                  "the host's singular vectors, so there is nothing to align")
        self.targets = plan_selection(self)

    def echo(self, point: int) -> dict:
        layers, ranks = self.grid[point]
        return {
            "mode": self.mode,
            "donor": str(self.donor.path),
            "host": str(self.host.path),
            "profile": self.profile.name,
            "layers": str(layers),
            "ranks": str(ranks),
            "kinds": list(self.kinds),
            "align": self.align,
        }


# ---------------------------------------------------------------------------
# the splice itself


def mixed_matrix(
    host_t: SvdTriple,
    donor_t: SvdTriple,
    mode: str,
    ranks: np.ndarray,
) -> np.ndarray:
    """Rebuild the host matrix with donor singular values or vectors at `ranks`.

    values mode: host bases with donor values on the selected ranks.
    vectors mode: host values with donor u/v columns on the selected ranks;
    the mixed column sets are used as-is. The donor triple may hold only
    leading columns; a selected rank beyond them is a ValidationError.
    Vectors mode scales its private copy of the host `u` by sigma in place,
    so the product needs no third m x r array; the bytes equal
    `(u * sigma) @ v.T`. Neither triple is written.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if host_t.shape != donor_t.shape:
        raise ValidationError(f"shape mismatch: host {host_t.shape} vs donor {donor_t.shape}")
    ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
    if ranks.size and (ranks.min() < 0 or ranks.max() >= host_t.rank):
        raise ValidationError(f"rank indices out of bounds for rank {host_t.rank}")
    held = min(donor_t.u.shape[1], donor_t.v.shape[1])
    if mode == "vectors" and ranks.size and ranks.max() >= held:
        raise ValidationError(f"rank {ranks.max()} is beyond the {held} donor columns held")
    if mode == "values":
        sigma = host_t.sigma.copy()
        sigma[ranks] = donor_t.sigma[ranks]
        return (host_t.u * sigma) @ host_t.v.T
    u = host_t.u.copy()
    v = host_t.v.copy()
    u[:, ranks] = donor_t.u[:, ranks]
    v[:, ranks] = donor_t.v[:, ranks]
    u *= host_t.sigma
    return u @ v.T


def _aligned_donor(host_t: SvdTriple, donor_t: SvdTriple, ranks: np.ndarray) -> SvdTriple:
    """Rotate the donor's selected columns onto the host's span (experimental)."""
    u = donor_t.u.copy()
    v = donor_t.v.copy()
    ru = procrustes(donor_t.u[:, ranks], host_t.u[:, ranks])
    rv = procrustes(donor_t.v[:, ranks], host_t.v[:, ranks])
    u[:, ranks] = donor_t.u[:, ranks] @ ru
    v[:, ranks] = donor_t.v[:, ranks] @ rv
    return SvdTriple(u=u, sigma=donor_t.sigma, v=v)


# ---------------------------------------------------------------------------
# full-checkpoint runs


@dataclass
class MatrixRecord:
    key: MatrixKey
    tensor: str
    status: str  # "edited" | "copied"
    ranks_touched: int = 0
    rank_lo: int = -1
    rank_hi: int = -1
    fro_vs_host: float = 0.0
    fro_vs_donor: float = 0.0
    max_entry_change: float = 0.0
    degenerate_boundary: bool = False


@dataclass
class SurgeryReport:
    plan: dict
    records: list[MatrixRecord]
    copied_tensors: list[str]
    #: per edited tensor: max |stored - requested| after dtype rounding
    rounding_errors: dict[str, float]


def plan_selection(plan: SurgeryPlan) -> list[tuple[Target, list[np.ndarray | None]]]:
    """Each matrix some grid point edits, in key order, with its ranks per grid point.

    The matrices come from one `pair_matrices` walk of host and donor over
    the plan's kinds, so each checkpoint's keys are resolved once for the
    whole grid. A grid point takes those host matrices in the layers its
    selector picks from theirs, and gives each the ranks its rank selector
    resolves for that matrix (possibly none); it gives None to a matrix its
    layers leave out. A matrix that every grid point leaves out is dropped,
    and one that some grid point takes and the donor lacks is an error.
    """
    paired = pair_matrices(plan.host, plan.donor, plan.profile, plan.kinds)
    host_layers = sorted({key.layer for key, *_ in paired})
    chosen = [(layers.resolve(host_layers), ranks) for layers, ranks in plan.grid]
    targets = []
    for target in paired:
        key, host_name, donor_name, _, _ = target
        thin_rank = min(plan.host.index[host_name].shape)
        point_ranks = [ranks.resolve(thin_rank) if key.layer in layers else None
                       for layers, ranks in chosen]
        if all(ranks is None for ranks in point_ranks):
            continue
        if donor_name is None:
            raise ValidationError(f"donor checkpoint has no tensor for {key.label}")
        targets.append((target, point_ranks))
    return targets


def _splice_target(
    target_ranks: tuple[Target, list[np.ndarray | None]],
    plan: SurgeryPlan,
    writers: list[CheckpointWriter],
) -> list[tuple[int, MatrixRecord, float | None]]:
    """The restore job: (grid point, record, rounding error) of one of `plan.targets`.

    One triple per grid point that takes the target, in grid order. Each
    edit goes to its grid point's writer in `writers` as soon as its record
    is taken, and the error is the one the writer returns; a copied record
    has None. Host and donor are decomposed once, and only when some grid
    point selects ranks of this matrix. The donor goes first, and only what
    the mixing reads of it is kept while the host decomposes: `svd(w, keep)`
    keeps its whole `sigma` and its leading `u` and `v` columns up to the
    highest rank any grid point selects (none in values mode). Neither
    float64 matrix is held across the other's decomposition: the loaders
    decode each again for every grid point's distances. Each matrix is
    handed over to `svd` as the only reference, so it is freed before
    LAPACK's factors are allocated (see `svd`). A grid point's distances
    subtract its mixed matrix into the freshly decoded host, and then into
    the freshly decoded donor, each dropped before the next decode, so no
    m x n difference is allocated, and no float64 result outlives its grid
    point.
    """
    (key, host_name, _, load_host, load_donor), point_ranks = target_ranks
    points = [(i, ranks) for i, ranks in enumerate(point_ranks) if ranks is not None]
    results = [(i, MatrixRecord(key=key, tensor=host_name, status="copied"), None) for i, _ in points]
    if not any(ranks.size for _, ranks in points):
        load_host()  # a non-finite host fails as it would if edited
        return results
    keep = 0 if plan.mode == "values" else 1 + max(int(r.max()) for _, r in points if r.size)
    donor_t = svd(load_donor(), keep)
    host_t = svd(load_host())
    for j, (i, ranks) in enumerate(points):
        if ranks.size == 0:
            continue
        point_donor_t = (
            _aligned_donor(host_t, donor_t, ranks) if plan.align == "procrustes" else donor_t
        )
        w_out = mixed_matrix(host_t, point_donor_t, plan.mode, ranks)
        diff = load_host()
        np.subtract(w_out, diff, out=diff)
        fro_vs_host = float(np.linalg.norm(diff))
        max_entry_change = float(np.max(np.abs(diff, out=diff)))
        del diff
        diff = load_donor()
        np.subtract(w_out, diff, out=diff)
        fro_vs_donor = float(np.linalg.norm(diff))
        del diff
        record = MatrixRecord(
            key=key, tensor=host_name, status="edited", ranks_touched=int(ranks.size),
            rank_lo=int(ranks.min()), rank_hi=int(ranks.max()), fro_vs_host=fro_vs_host,
            fro_vs_donor=fro_vs_donor, max_entry_change=max_entry_change,
            degenerate_boundary=any(boundary_gap(t.sigma, ranks)[1] for t in (host_t, point_donor_t)),
        )
        results[j] = (i, record, writers[i].write_edit(host_name, w_out))
        del w_out, point_donor_t  # free before the next grid point mixes its own
    return results


def run_surgery(
    plan: SurgeryPlan, outs: list[str | Path], force_f32: bool = False
) -> list[SurgeryReport]:
    """Execute a plan; grid point i writes its checkpoint to `outs[i]`.

    The outputs are streamed. Before any matrix is loaded, `write_checkpoint`
    starts each grid point's file: the header, and every tensor that grid
    point leaves unedited, copied byte-exact. A grid point edits the
    targets it resolved ranks for (`plan.targets`), each stored in the
    host's dtype, or in F32 when `force_f32`; this is the one place an
    edit's dtype is decided. `run_pairs` then runs the restore job,
    `_splice_target`, on each target once, in key order, and the job
    writes each edit as it makes it. A matrix no grid point selects ranks
    of gets no SVD, and the run holds one matrix's working set at a time,
    however many layers and grid points the plan has.

    An output that is the host or the donor file, or that two grid points
    share, is refused before any output is opened. If the run fails, every
    output it started is removed.
    """
    if len(plan.grid) != len(outs):
        raise ValidationError(f"{len(plan.grid)} grid points but {len(outs)} output paths")
    if len({os.path.realpath(out) for out in outs}) != len(outs):
        raise ValidationError("two grid points name the same output path")
    for out in outs:
        for role, source in (("own base", plan.host), ("donor", plan.donor)):
            if os.path.exists(out) and os.path.samefile(out, source.path):
                raise ValidationError(f"cannot write checkpoint over its {role} {source.path}")

    edited = [
        sorted(name for (_, name, *_), ranks in plan.targets
               if ranks[point] is not None and ranks[point].size)
        for point in range(len(plan.grid))
    ]
    started = []
    try:
        writers = []
        for names, out in zip(edited, outs):
            started.append(out)
            dtypes = {name: "F32" if force_f32 else plan.host.index[name].dtype for name in names}
            writers.append(write_checkpoint(plan.host, dtypes, out))
        jobs = run_pairs(_splice_target, plan.targets, plan, writers)
        results = [result for _, target_results in jobs for result in target_results]
    except BaseException:
        for out in started:
            with contextlib.suppress(OSError):
                os.unlink(out)
        raise

    return [
        SurgeryReport(
            plan=plan.echo(point),
            records=[record for i, record, _ in results if i == point],
            copied_tensors=sorted(set(plan.host.index) - set(names)),
            rounding_errors={record.tensor: error for i, record, error in results
                             if i == point and error is not None},
        )
        for point, names in enumerate(edited)
    ]
