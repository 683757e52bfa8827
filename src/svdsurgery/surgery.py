"""Splice singular values or vectors between two checkpoints.

A surgery keeps one checkpoint as the host, takes the selected spectral part
from the donor, and writes the edited model. Pairing of singular directions
is by rank index after canonical sorting; mixed column sets are used as-is,
with no re-orthogonalization, so the report flags matrices whose selection
boundary falls inside a near-degenerate gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .spectral import DEGENERATE_GAP_RATIO, SvdTriple, procrustes, svd
from .tensorstore import (
    DEFAULT_SURGERY_KINDS,
    Checkpoint,
    MatrixKey,
    NamingProfile,
    WriteReport,
    load_matrix,
    pair_matrices,
    resolve_keys,
    write_checkpoint,
)

MODES = ("values", "vectors")


# ---------------------------------------------------------------------------
# selection


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
        if text.startswith("first:") or text.startswith("last:"):
            rule, _, num = text.partition(":")
            try:
                k = int(num)
            except ValueError as exc:
                raise ValidationError(f"bad layer selector {text!r}") from exc
            if k < 0:
                raise ValidationError(f"layer count must be >= 0 in {text!r}")
            return cls(rule=rule, count=k)
        if text.startswith("list:"):
            try:
                idx = tuple(sorted({int(i) for i in text[5:].split(",")}))
            except ValueError as exc:
                raise ValidationError(f"bad layer selector {text!r}") from exc
            if any(i < 0 for i in idx):
                raise ValidationError(f"layer indices must be >= 0 in {text!r}")
            return cls(rule="list", indices=idx)
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
        if text.startswith("top:") or text.startswith("bottom:"):
            rule, _, num = text.partition(":")
            try:
                k = int(num)
            except ValueError as exc:
                raise ValidationError(f"bad rank selector {text!r}") from exc
            if k < 0:
                raise ValidationError(f"rank count must be >= 0 in {text!r}")
            return cls(rule=rule, count=k)
        if text.startswith("range:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise ValidationError(f"bad rank selector {text!r}; use range:A:B")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"bad rank selector {text!r}") from exc
            if a < 0 or a > b:
                raise ValidationError(f"range needs 0 <= A <= B in {text!r}")
            return cls(rule="range", lo=a, hi=b)
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


@dataclass(frozen=True)
class SelectionSpec:
    layers: LayerSelector
    ranks: RankSelector
    kinds: tuple[str, ...] = DEFAULT_SURGERY_KINDS


@dataclass
class SurgeryPlan:
    mode: str  # "values" | "vectors"
    donor: Checkpoint
    host: Checkpoint
    selection: SelectionSpec
    profile: NamingProfile
    align: str = "none"  # "none" | "procrustes" (vectors mode, experimental)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.align not in ("none", "procrustes"):
            raise ValidationError(f"align must be 'none' or 'procrustes', got {self.align!r}")

    def echo(self) -> dict:
        return {
            "mode": self.mode,
            "donor": str(self.donor.path),
            "host": str(self.host.path),
            "profile": self.profile.name,
            "layers": str(self.selection.layers),
            "ranks": str(self.selection.ranks),
            "kinds": list(self.selection.kinds),
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
    the mixed column sets are used as-is.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if host_t.shape != donor_t.shape:
        raise ValidationError(f"shape mismatch: host {host_t.shape} vs donor {donor_t.shape}")
    ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
    if ranks.size and (ranks.min() < 0 or ranks.max() >= host_t.rank):
        raise ValidationError(f"rank indices out of bounds for rank {host_t.rank}")
    if mode == "values":
        sigma = host_t.sigma.copy()
        sigma[ranks] = donor_t.sigma[ranks]
        return (host_t.u * sigma) @ host_t.v.T
    u = host_t.u.copy()
    v = host_t.v.copy()
    u[:, ranks] = donor_t.u[:, ranks]
    v[:, ranks] = donor_t.v[:, ranks]
    return (u * host_t.sigma) @ v.T


def _boundary_degenerate(sigma: np.ndarray, ranks: np.ndarray) -> bool:
    """True when any selected/unselected boundary gap is below the degeneracy ratio."""
    r = sigma.shape[0]
    if ranks.size in (0, r):
        return False
    selected = np.zeros(r, dtype=bool)
    selected[ranks] = True
    boundary = selected[:-1] != selected[1:]
    gaps = sigma[:-1][boundary] - sigma[1:][boundary]
    return bool(np.any(gaps < DEGENERATE_GAP_RATIO * sigma[0]))


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
    toolkit_version: str
    out_path: Path
    records: list[MatrixRecord] = field(default_factory=list)
    copied_tensors: list[str] = field(default_factory=list)
    write_report: WriteReport | None = None

    @property
    def edited_count(self) -> int:
        return sum(1 for r in self.records if r.status == "edited")


def plan_selection(plan: SurgeryPlan) -> list[tuple[MatrixKey, str, str]]:
    """Resolve and validate the (key, host tensor, donor tensor) triples to edit.

    The selection filters the host's matrices by kind and layer; a selected
    key that the donor lacks is an error.
    """
    kinds = set(plan.selection.kinds)
    host_layers = {
        key.layer for key, _ in resolve_keys(plan.host, plan.profile).matched if key.kind in kinds
    }
    layers = plan.selection.layers.resolve(sorted(host_layers))
    selected = pair_matrices(
        plan.host, plan.donor, plan.profile, lambda key: key.kind in kinds and key.layer in layers
    )
    for key, _, donor_name in selected:
        if donor_name is None:
            raise ValidationError(f"donor checkpoint has no tensor for {key.label}")
    return selected


def run_surgery(
    plan: SurgeryPlan,
    out: str | Path,
    toolkit_version: str = "0",
    force_f32: bool = False,
) -> SurgeryReport:
    """Execute a plan and write the edited checkpoint to `out`.

    Every selected matrix is replaced by the mixed_matrix output; all other
    tensors are copied byte-exact. A selection that resolves to no ranks
    leaves the tensor untouched (no SVD round trip).
    """
    selected = plan_selection(plan)
    report = SurgeryReport(plan=plan.echo(), toolkit_version=toolkit_version, out_path=Path(out))

    edits: dict[str, np.ndarray] = {}
    edited_names: set[str] = set()
    for key, host_name, donor_name in selected:
        w_host = load_matrix(plan.host, host_name)
        thin = min(w_host.shape)
        ranks = plan.selection.ranks.resolve(thin)
        if ranks.size == 0:
            report.records.append(MatrixRecord(key=key, tensor=host_name, status="copied"))
            continue
        w_donor = load_matrix(plan.donor, donor_name)
        host_t = svd(w_host)
        donor_t = svd(w_donor)
        if plan.align == "procrustes" and plan.mode == "vectors":
            donor_t = _aligned_donor(host_t, donor_t, ranks)
        w_out = mixed_matrix(host_t, donor_t, plan.mode, ranks)
        edits[host_name] = w_out
        edited_names.add(host_name)
        report.records.append(
            MatrixRecord(
                key=key,
                tensor=host_name,
                status="edited",
                ranks_touched=int(ranks.size),
                rank_lo=int(ranks.min()),
                rank_hi=int(ranks.max()),
                fro_vs_host=float(np.linalg.norm(w_out - w_host)),
                fro_vs_donor=float(np.linalg.norm(w_out - w_donor)),
                max_entry_change=float(np.max(np.abs(w_out - w_host))),
                degenerate_boundary=(
                    _boundary_degenerate(host_t.sigma, ranks)
                    or _boundary_degenerate(donor_t.sigma, ranks)
                ),
            )
        )

    report.copied_tensors = sorted(set(plan.host.index) - edited_names)
    report.write_report = write_checkpoint(plan.host, edits, out, force_f32=force_f32)
    return report
