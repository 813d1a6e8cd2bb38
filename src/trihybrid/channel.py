"""Synthetic multipath geometry and channel assembly.

Generates single-bounce scatterer geometries around a base-station planar
array, computes exact per-antenna-pair distances and departure/arrival
angles, and assembles three channel representations per user:

* the plain per-antenna channel (M_k x N),
* the selection-lifted channel (M_k x N*S) whose column block n holds the
  channel through each candidate pattern of antenna n,
* the synthesis-lifted channel (M_k x N*T) whose column block n holds the
  channel through each harmonic basis function at antenna n.

Multiplying a lifted channel by the corresponding block-diagonal antenna
precoder reproduces the plain channel exactly.  Receive antennas are
isotropic.

Conventions: arrays lie in the y-z plane of their body frame, inclination is
measured from +z and azimuth from +x in the x-y plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sphharm
from .exceptions import GenerationError
from .patterns import CandidateSet

SPEED_OF_LIGHT = 299792458.0


# ---------------------------------------------------------------------------
# Array layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayLayout:
    """Uniform planar array in the y-z plane of the body frame."""

    positions: np.ndarray  # (N, 3) meters
    shape: tuple[int, int]  # (horizontal, vertical) element counts
    spacing: float  # meters

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


def upa_layout(
    n_horizontal: int,
    n_vertical: int,
    spacing: float,
    center=(0.0, 0.0, 0.0),
) -> ArrayLayout:
    """Planar array with element n = i_h * n_vertical + i_v at
    (0, i_h * spacing, i_v * spacing), shifted so the centroid is `center`."""
    if n_horizontal < 1 or n_vertical < 1:
        raise ValueError("array dimensions must be positive")
    ih, iv = np.meshgrid(np.arange(n_horizontal), np.arange(n_vertical), indexing="ij")
    positions = np.stack(
        [np.zeros(ih.size), ih.ravel() * spacing, iv.ravel() * spacing], axis=1
    )
    positions += np.asarray(center, dtype=float) - positions.mean(axis=0)
    return ArrayLayout(positions=positions, shape=(n_horizontal, n_vertical), spacing=spacing)


def to_spherical(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclination/azimuth of direction vectors (last axis xyz).

    Zero vectors yield NaN angles; callers validate distances separately.
    """
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        inclination = np.arccos(np.clip(vectors[..., 2] / norms, -1.0, 1.0))
    azimuth = np.arctan2(vectors[..., 1], vectors[..., 0])
    return inclination, azimuth


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    carrier_hz: float = 30e9
    bs_shape: tuple[int, int] = (4, 4)
    bs_spacing_wavelengths: float = 0.5
    ue_shape: tuple[int, int] = (2, 1)
    ue_spacing_wavelengths: float = 0.5
    n_users: int = 2
    paths_per_user: int | tuple[int, ...] = 4
    user_positions: np.ndarray | None = None  # (K, 3) meters, overrides the box
    user_box: tuple[float, ...] = (25.0, 60.0, -20.0, 20.0, -20.0, -5.0)
    scatterer_box: tuple[float, ...] = (5.0, 70.0, -30.0, 30.0, -25.0, 0.0)
    pathloss_exponent: float = 2.0

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def path_counts(self) -> tuple[int, ...]:
        if isinstance(self.paths_per_user, int):
            return (self.paths_per_user,) * self.n_users
        counts = tuple(self.paths_per_user)
        if len(counts) != self.n_users:
            raise ValueError("paths_per_user list must have one entry per user")
        return counts


@dataclass
class PathGeometry:
    """Exact per-pair propagation parameters for one user.

    Arrays are indexed (path, rx antenna, tx antenna).  Path 0 is the
    line-of-sight path; path l >= 1 bounces off scatterer l - 1.
    """

    wavelength: float
    pathloss_exponent: float
    distances: np.ndarray
    ref_distances: np.ndarray
    aod_inclination: np.ndarray
    aod_azimuth: np.ndarray
    phases: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.distances.shape[0]

    @property
    def n_rx(self) -> int:
        return self.distances.shape[1]

    @property
    def n_tx(self) -> int:
        return self.distances.shape[2]


@dataclass
class Scenario:
    config: ScenarioConfig
    seed: int
    bs_layout: ArrayLayout
    ue_layouts: list[ArrayLayout]
    user_positions: np.ndarray
    scatterers: list[np.ndarray]
    geometries: list[PathGeometry] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return len(self.geometries)

    @property
    def wavelength(self) -> float:
        return self.config.wavelength


def _box_uniform(rng: np.random.Generator, box, size: int) -> np.ndarray:
    lows = np.asarray(box[0::2], dtype=float)
    highs = np.asarray(box[1::2], dtype=float)
    return rng.uniform(lows, highs, size=(size, 3))


def _pair_geometry(bs_pos, ue_pos, hop):
    """Distances and departure angles from every tx antenna to every rx
    antenna.

    `hop` is None for line of sight, otherwise the scatterer position.
    Returns per-pair (M, N) arrays.
    """
    if hop is None:
        diff = ue_pos[:, None, :] - bs_pos[None, :, :]  # (M, N, 3)
        return np.linalg.norm(diff, axis=-1), to_spherical(diff)
    to_hop_tx = hop[None, :] - bs_pos  # (N, 3)
    d_tx = np.linalg.norm(to_hop_tx, axis=-1)
    d_rx = np.linalg.norm(hop[None, :] - ue_pos, axis=-1)
    dist = d_rx[:, None] + d_tx[None, :]
    aod_i, aod_a = to_spherical(to_hop_tx)
    M, N = d_rx.size, d_tx.size
    aod = (np.broadcast_to(aod_i, (M, N)).copy(), np.broadcast_to(aod_a, (M, N)).copy())
    return dist, aod


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Place the arrays and scatterers and compute exact path geometry.

    Deterministic for a fixed seed; the draw order is user positions (when
    not given explicitly), then per user the scatterer positions followed by
    one random phase per path.
    """
    rng = np.random.default_rng(seed)
    wavelength = config.wavelength
    bs = upa_layout(*config.bs_shape, config.bs_spacing_wavelengths * wavelength)

    if config.user_positions is not None:
        user_positions = np.asarray(config.user_positions, dtype=float)
        if user_positions.shape != (config.n_users, 3):
            raise ValueError("user_positions must have shape (n_users, 3)")
    else:
        user_positions = _box_uniform(rng, config.user_box, config.n_users)

    ue_layouts = []
    scatterers = []
    geometries = []
    for k, n_paths in enumerate(config.path_counts()):
        if n_paths < 1:
            raise ValueError("each user needs at least one path")
        ue = upa_layout(
            *config.ue_shape,
            config.ue_spacing_wavelengths * wavelength,
            center=user_positions[k],
        )
        ue_layouts.append(ue)
        hops = _box_uniform(rng, config.scatterer_box, n_paths - 1)
        scatterers.append(hops)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_paths)

        M, N = ue.size, bs.size
        dist = np.empty((n_paths, M, N))
        aod_i = np.empty_like(dist)
        aod_a = np.empty_like(dist)
        ref = np.empty(n_paths)
        for ell in range(n_paths):
            hop = None if ell == 0 else hops[ell - 1]
            d, aod = _pair_geometry(bs.positions, ue.positions, hop)
            dist[ell] = d
            aod_i[ell], aod_a[ell] = aod
            if hop is None:
                ref[ell] = np.linalg.norm(ue.centroid - bs.centroid)
            else:
                ref[ell] = np.linalg.norm(hop - bs.centroid) + np.linalg.norm(
                    ue.centroid - hop
                )
        if np.min(dist) < 1e-6:
            raise GenerationError(
                f"user {k}: propagation distance collapsed to zero "
                "(antenna and scatterer positions coincide)"
            )
        geometries.append(
            PathGeometry(
                wavelength=wavelength,
                pathloss_exponent=config.pathloss_exponent,
                distances=dist,
                ref_distances=ref,
                aod_inclination=aod_i,
                aod_azimuth=aod_a,
                phases=np.broadcast_to(phases[:, None, None], dist.shape).copy(),
            )
        )
    return Scenario(
        config=config,
        seed=seed,
        bs_layout=bs,
        ue_layouts=ue_layouts,
        user_positions=user_positions,
        scatterers=scatterers,
        geometries=geometries,
    )


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def _base_factors(geom: PathGeometry):
    """Complex gain times manifold phase per pair: C * A."""
    lam = geom.wavelength
    M, N = geom.n_rx, geom.n_tx
    amplitude = (lam / (4.0 * np.pi * geom.distances)) ** (geom.pathloss_exponent / 2.0)
    gain = amplitude * np.exp(1j * geom.phases)
    manifold = np.exp(
        -2j * np.pi / lam * (geom.distances - geom.ref_distances[:, None, None])
    ) / np.sqrt(N * M)
    return gain * manifold


def assemble_channel(geom: PathGeometry, tx_patterns) -> np.ndarray:
    """Plain per-antenna channel (M x N) from exact pair geometry.

    `tx_patterns` is one :class:`~trihybrid.patterns.Pattern` (any object
    with a `gain(theta, phi)` method), shared by all transmit antennas, or
    a sequence of them, one per antenna.
    """
    if hasattr(tx_patterns, "gain"):
        tx_patterns = [tx_patterns] * geom.n_tx
    if len(tx_patterns) != geom.n_tx:
        raise ValueError(
            f"need {geom.n_tx} transmit patterns, got {len(tx_patterns)}"
        )
    base = _base_factors(geom)
    g_tx = np.empty_like(geom.distances)
    for n, pattern in enumerate(tx_patterns):
        g_tx[:, :, n] = pattern.gain(
            geom.aod_inclination[:, :, n], geom.aod_azimuth[:, :, n]
        )
    M, N, L = geom.n_rx, geom.n_tx, geom.n_paths
    return np.sqrt(N * M / L) * (base * g_tx).sum(axis=0)


# ---------------------------------------------------------------------------
# Lifted effective channels
# ---------------------------------------------------------------------------

@dataclass
class EffectiveChannel:
    """Lifted channel whose column block n spans antenna n's pattern choices."""

    matrix: np.ndarray  # (M, N * block_width) complex
    mode: str  # "sel" (candidate patterns) | "cof" (harmonic coefficients)
    block_width: int

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[1] // self.block_width

    def blocks(self) -> np.ndarray:
        """View shaped (M, N, block_width)."""
        return self.matrix.reshape(self.n_rx, self.n_antennas, self.block_width)


def _lift(geom: PathGeometry, gains: np.ndarray, mode: str) -> EffectiveChannel:
    """Lifted channel (M x N*W) through W gain functions per antenna, sampled
    at every pair's departure angles: `gains` is (L, M, N, W)."""
    lifted = (_base_factors(geom)[..., None] * gains).sum(axis=0)
    M, N, L = geom.n_rx, geom.n_tx, geom.n_paths
    width = gains.shape[-1]
    matrix = np.sqrt(N * M / L) * lifted.reshape(M, N * width)
    return EffectiveChannel(matrix=matrix, mode=mode, block_width=width)


def selection_effective_channel(geom: PathGeometry, candidates: CandidateSet) -> EffectiveChannel:
    """Lifted channel over a finite candidate set (M x N*S)."""
    gains = candidates.gain_vector(geom.aod_inclination, geom.aod_azimuth)
    return _lift(geom, gains, "sel")


def synthesis_effective_channel(geom: PathGeometry, degree: int) -> EffectiveChannel:
    """Lifted channel over the harmonic basis up to `degree` (M x N*T)."""
    basis = sphharm.sh_basis(geom.aod_inclination, geom.aod_azimuth, degree)
    return _lift(geom, basis, "cof")


def compose(eff: EffectiveChannel, antenna_matrix: np.ndarray) -> np.ndarray:
    """Plain channel from a lifted one: column n is block n times row n of
    `antenna_matrix` (one-hot rows for selection, coefficient rows for
    synthesis).  A stack of antenna matrices, (..., N, W), gives the stack
    of their channels, (..., M, N), each with the bits it gets alone."""
    antenna_matrix = np.asarray(antenna_matrix)
    if antenna_matrix.shape[-2:] != (eff.n_antennas, eff.block_width):
        raise ValueError(
            f"antenna matrix must have shape {(eff.n_antennas, eff.block_width)}, "
            f"got {antenna_matrix.shape}"
        )
    return np.einsum("mnw,...nw->...mn", eff.blocks(), antenna_matrix)
