"""Factor a fully digital precoder into analog and digital stages.

The analog stage is phase-only with entries of squared modulus 1/N; the
digital stage is unconstrained.  Alternating minimization under a relaxed
total-power view: the digital stage is the least-squares fit (minimum norm,
singular values at or below 1e-9 of the largest dropped), and the analog
stage is refined one column at a time, each entry's phase set to its exact
per-coordinate minimizer, so the Frobenius mismatch never increases.  A
final scalar rescaling of the digital stage restores the per-antenna power
budgets.  A stack of precoders is factored in one batched alternation: each
alternation makes one phase pass, one least-squares fit and one residual
for every run still alternating, each run with the bits it would get alone.
The fit takes one Householder QR per run, and an SVD only for a run whose
analog stage may come near the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative singular-value cutoff of the digital least-squares fit.  Nearly
# parallel analog columns (a rank-deficient target) would otherwise scale
# last-bit differences of the target into different alternation paths.  The
# QR fit drops nothing, so the cutoff is applied by an SVD fit, made only for
# the runs whose QR factor cannot prove them well inside it.
_LSTSQ_RCOND = 1e-9
# Largest ||R||_F ||R^-1||_F of a run fitted through its QR factor R.  It
# bounds the condition number s_max / s_min three decades inside the
# cutoff's 1 / _LSTSQ_RCOND: a run closer to the cutoff is nearly
# rank-deficient and keeps the SVD's arithmetic, and a run under the bound
# gets a QR fit within about 1e6 * eps relative of the SVD fit.
_QR_CONDITION = 1e-3 / _LSTSQ_RCOND
# Cap on the alternations of one run, a safety net: runs stop when their
# improvement stalls.
_ALTERNATIONS = 30


@dataclass
class DecompositionResult:
    f_rf: np.ndarray  # (N, N_RF), entries (1/sqrt(N)) * e^{j phase}
    f_bb: np.ndarray  # (N_RF, D), rescaled for per-antenna feasibility
    residual: float  # relative Frobenius mismatch before rescaling
    scale: float  # factor applied to the digital stage
    history: list[float] = field(default_factory=list)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of every matrix of a stack, (B, m, n) -> (B,),
    each summed alone along one contiguous axis."""
    return np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1)


def _svd_least_squares(f_rf: np.ndarray, f_d: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares digital stage of every run of a stack,
    from one SVD of the analog stages, (B, N, N_RF): singular values at or
    below `_LSTSQ_RCOND` times the run's largest are dropped, as
    `np.linalg.lstsq` drops them."""
    u, singulars, vh = np.linalg.svd(f_rf, full_matrices=False)
    kept = singulars > _LSTSQ_RCOND * singulars[:, :1]
    inverse = np.divide(1.0, singulars, out=np.zeros_like(singulars), where=kept)
    return vh.conj().swapaxes(1, 2) @ (inverse[:, :, None] * (u.conj().swapaxes(1, 2) @ f_d))


def _least_squares(f_rf: np.ndarray, f_d: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares digital stage of every run of a stack,
    (B, N, N_RF), with singular values at or below `_LSTSQ_RCOND` times the
    run's largest dropped, as `np.linalg.lstsq` drops them.

    Each run is fitted from one Householder QR of its analog stage,
    R^-1 Q^H f_d.  Its singular values are R's, so s_min >= 1 / ||R^-1||_F
    and s_max <= ||R||_F: where ||R||_F ||R^-1||_F is at most
    `_QR_CONDITION` no singular value is dropped, and the unique
    least-squares fit is the minimum-norm one.  A run over that bound, or
    with a zero pivot, is fitted by :func:`_svd_least_squares` instead.
    """
    q, r = np.linalg.qr(f_rf)
    solid = np.diagonal(r, axis1=1, axis2=2).all(axis=1)  # no zero pivot
    if not solid.all():
        r = np.where(solid[:, None, None], r, np.eye(r.shape[-1]))
    inverse = np.linalg.inv(r)
    fit = inverse @ (q.conj().swapaxes(1, 2) @ f_d)
    near = np.flatnonzero(~(solid & (_frobenius(r) * _frobenius(inverse) <= _QR_CONDITION)))
    if near.size:
        fit[near] = _svd_least_squares(f_rf[near], f_d[near])
    return fit


def _relative_residuals(mismatch: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """||f_d - f_rf f_bb|| / ||f_d|| of every run of a stack, given its
    mismatch f_d - f_rf f_bb and the targets' norms; 0 for a zero target."""
    return np.divide(_frobenius(mismatch), norms, out=np.zeros_like(norms), where=norms > 0.0)


def feasibility_scale(f: np.ndarray, power) -> float:
    """Largest factor that keeps every row of `f` within its per-antenna
    power budget (a scalar or one per row); inf when every row is zero."""
    per_antenna = np.sum(np.abs(f) ** 2, axis=1)
    positive = per_antenna > 0.0
    if not np.any(positive):
        return np.inf
    power = np.broadcast_to(np.asarray(power, dtype=float), per_antenna.shape)
    return float(np.min(np.sqrt(power[positive] / per_antenna[positive])))


def rescale_per_antenna(
    f_rf: np.ndarray, f_bb: np.ndarray, power
) -> tuple[np.ndarray, float]:
    """Scale the digital stage so every antenna meets its power budget.

    Returns the scaled digital stage and the scalar applied (never above 1,
    so no entry grows).
    """
    scale = min(1.0, feasibility_scale(f_rf @ f_bb, power))
    return f_bb * scale, scale


def _refine_phases(residual, f_rf, f_bb) -> np.ndarray:
    """One cyclic pass of exact per-column phase updates on the analog stage
    of every run of a stack, (B, N, N_RF), in place, given the runs'
    mismatch f_d - f_rf f_bb, which the pass keeps up to date in place.

    Column j's entries each minimize the true mismatch with everything else
    held fixed, so the pass cannot increase the residual.  The mismatch
    without column j is never formed: column j's match with its gains g_j
    is residual conj(g_j) + column ||g_j||^2, and the move of the column
    is one rank-one update of the mismatch.
    """
    root = np.sqrt(f_rf.shape[1])
    targets = f_bb.conj()[..., None]  # conj(f_bb[:, j]) as (B, D, 1) columns
    start = f_rf.copy()  # each column as the pass finds it
    own = start * np.sum(f_bb.real**2 + f_bb.imag**2, axis=2)[:, None, :]
    for j in range(f_rf.shape[2]):
        column, gains = f_rf[:, :, j, None], f_bb[:, j, None, :]
        match = residual @ targets[:, j]
        match += own[:, :, j, None]
        magnitude = np.abs(match)
        magnitude *= root
        # Each entry becomes match / (|match| sqrt(N)); a zero match keeps its phase.
        np.divide(match, magnitude, out=column, where=magnitude > 0.0)
        residual += (start[:, :, j, None] - column) * gains
    return f_rf


def decompose_precoders(
    f_d: np.ndarray,
    n_rf: int,
    power,
    seeds,
) -> list[DecompositionResult]:
    """Alternate digital least squares and analog phase refinement on a
    stack of precoders, (B, N, D), all with `n_rf` chains.

    `power` holds each run's budgets (a scalar or one per antenna), or
    None for a run whose digital stage is left unscaled, and `seeds` each
    run's seed.  The analog stage starts from the phases of
    the leading columns of the target; random phases from the run's own
    generator pad any extra chains.  Each alternation makes one batched
    phase pass, one batched least-squares fit (`_least_squares`) and one
    batched mismatch for every run still alternating, the phase pass
    updating the mismatch it is handed in place; the loop over runs only
    records.  A run stops on its own tests: a residual below 1e-15, an
    improvement that stalls, or the cap of `_ALTERNATIONS` alternations.
    Its recorded residual history is non-increasing.  After the alternation
    each run's digital stage is rescaled for per-antenna feasibility,
    unless its budget is None (scale 1).  Returns one
    result per run, each equal to the bit to the run decomposed alone.
    """
    f_d = np.asarray(f_d, dtype=complex)
    n_runs, n_antennas, n_streams = f_d.shape
    if n_rf > n_antennas:
        raise ValueError(f"cannot use {n_rf} chains with {n_antennas} antennas")
    if n_rf < 1:
        raise ValueError("need at least one chain")

    lead = min(n_rf, n_streams)
    phases = np.angle(f_d[:, :, :lead])
    if n_rf > lead:
        pads = [
            np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_antennas, n_rf - lead))
            for seed in seeds
        ]
        phases = np.concatenate([phases, np.stack(pads)], axis=2)
    f_rf = np.exp(1j * phases) / np.sqrt(n_antennas)

    f_bb = _least_squares(f_rf, f_d)
    norms = _frobenius(f_d)
    mismatch = f_d - f_rf @ f_bb
    residuals = _relative_residuals(mismatch, norms)
    histories = [[residual] for residual in residuals.tolist()]
    active = np.flatnonzero(~(residuals < 1e-15))
    mismatch = mismatch[active]  # the active runs' mismatch, in `active` order
    for _ in range(_ALTERNATIONS):
        if not active.size:
            break
        if active.size == n_runs:  # no run has stopped: work in place, with no gather
            _refine_phases(mismatch, f_rf, f_bb)
            f_bb = _least_squares(f_rf, f_d)
            mismatch = f_d - f_rf @ f_bb
            new = _relative_residuals(mismatch, norms)
        else:
            targets = f_d[active]
            f_rf[active] = analog = _refine_phases(mismatch, f_rf[active], f_bb[active])
            f_bb[active] = digital = _least_squares(analog, targets)
            mismatch = targets - analog @ digital
            new = _relative_residuals(mismatch, norms[active])
        old = residuals[active]
        residuals[active] = kept = np.minimum(new, old)
        for b, residual in zip(active.tolist(), kept.tolist()):
            histories[b].append(residual)
        # A run stops when its improvement stalls or its residual drops below 1e-15.
        keep = ~(new >= old - 1e-15) & ~(new < 1e-15)
        active, mismatch = active[keep], mismatch[keep]

    results = []
    for b, (residual, history) in enumerate(zip(residuals.tolist(), histories)):
        f_bb_scaled, scale = f_bb[b], 1.0
        if power[b] is not None:
            f_bb_scaled, scale = rescale_per_antenna(f_rf[b], f_bb[b], power[b])
        results.append(
            DecompositionResult(
                f_rf=f_rf[b], f_bb=f_bb_scaled, residual=residual, scale=scale, history=history
            )
        )
    return results


def decompose_precoder(
    f_d: np.ndarray,
    n_rf: int,
    power,
    seed: int = 0,
) -> DecompositionResult:
    """Alternate digital least squares and analog phase refinement: the
    decomposition of :func:`decompose_precoders` on a stack of one.

    The analog stage starts from the phases of the leading columns of the
    target (random phases pad any extra chains).  The recorded residual
    history is non-increasing; the loop stops early once the improvement
    stalls.  After the alternation the digital stage is rescaled for
    per-antenna feasibility.
    """
    return decompose_precoders(np.asarray(f_d)[None], n_rf, [power], [seed])[0]
