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
precoder reproduces the plain channel exactly.

Conventions: arrays lie in the y-z plane of their body frame, inclination is
measured from +z and azimuth from +x in the x-y plane.  Arrival angles point
from the receiver toward the last hop (look-back direction); that is the
direction at which receive patterns are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sphharm
from .exceptions import GenerationError
from .patterns import CandidateSet, RadiationPattern, isotropic_pattern

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
    aoa_inclination: np.ndarray
    aoa_azimuth: np.ndarray
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
    """Distances and angles from every tx antenna to every rx antenna.

    `hop` is None for line of sight, otherwise the scatterer position.
    Returns per-pair (M, N) arrays.
    """
    if hop is None:
        diff = ue_pos[:, None, :] - bs_pos[None, :, :]  # (M, N, 3)
        dist = np.linalg.norm(diff, axis=-1)
        aod = to_spherical(diff)
        aoa = to_spherical(-diff)
        return dist, aod, aoa
    to_hop_tx = hop[None, :] - bs_pos  # (N, 3)
    to_hop_rx = hop[None, :] - ue_pos  # (M, 3)
    d_tx = np.linalg.norm(to_hop_tx, axis=-1)
    d_rx = np.linalg.norm(to_hop_rx, axis=-1)
    dist = d_rx[:, None] + d_tx[None, :]
    aod_i, aod_a = to_spherical(to_hop_tx)
    aoa_i, aoa_a = to_spherical(to_hop_rx)
    M, N = d_rx.size, d_tx.size
    aod = (np.broadcast_to(aod_i, (M, N)).copy(), np.broadcast_to(aod_a, (M, N)).copy())
    aoa = (
        np.broadcast_to(aoa_i[:, None], (M, N)).copy(),
        np.broadcast_to(aoa_a[:, None], (M, N)).copy(),
    )
    return dist, aod, aoa


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
        aoa_i = np.empty_like(dist)
        aoa_a = np.empty_like(dist)
        ref = np.empty(n_paths)
        for ell in range(n_paths):
            hop = None if ell == 0 else hops[ell - 1]
            d, aod, aoa = _pair_geometry(bs.positions, ue.positions, hop)
            dist[ell] = d
            aod_i[ell], aod_a[ell] = aod
            aoa_i[ell], aoa_a[ell] = aoa
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
                aoa_inclination=aoa_i,
                aoa_azimuth=aoa_a,
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

def _base_factors(geom: PathGeometry, rx_pattern: RadiationPattern):
    """Complex gain, manifold phase and receive gain per pair: C * A * G_ue."""
    lam = geom.wavelength
    M, N = geom.n_rx, geom.n_tx
    amplitude = (lam / (4.0 * np.pi * geom.distances)) ** (geom.pathloss_exponent / 2.0)
    gain = amplitude * np.exp(1j * geom.phases)
    manifold = np.exp(
        -2j * np.pi / lam * (geom.distances - geom.ref_distances[:, None, None])
    ) / np.sqrt(N * M)
    g_rx = rx_pattern.gain(geom.aoa_inclination, geom.aoa_azimuth)
    return gain * manifold * g_rx


def assemble_channel(
    geom: PathGeometry,
    tx_patterns,
    rx_pattern: RadiationPattern | None = None,
) -> np.ndarray:
    """Plain per-antenna channel (M x N) from exact pair geometry.

    `tx_patterns` is either one pattern shared by all transmit antennas or a
    sequence with one pattern per antenna.
    """
    rx_pattern = rx_pattern or isotropic_pattern()
    if isinstance(tx_patterns, RadiationPattern):
        tx_patterns = [tx_patterns] * geom.n_tx
    if len(tx_patterns) != geom.n_tx:
        raise ValueError(
            f"need {geom.n_tx} transmit patterns, got {len(tx_patterns)}"
        )
    base = _base_factors(geom, rx_pattern)
    g_tx = np.empty_like(geom.distances)
    for n, pattern in enumerate(tx_patterns):
        g_tx[:, :, n] = pattern.gain(
            geom.aod_inclination[:, :, n], geom.aod_azimuth[:, :, n]
        )
    M, N, L = geom.n_rx, geom.n_tx, geom.n_paths
    return np.sqrt(N * M / L) * (base * g_tx).sum(axis=0)


def upa_response(theta, phi, n_horizontal, n_vertical, spacing, wavelength) -> np.ndarray:
    """Far-field response of a planar array, referenced to element 0.

    Horizontal and vertical spatial frequencies are
    (spacing / wavelength) * sin(phi) * sin(theta) and
    (spacing / wavelength) * cos(theta); the result is the normalized
    Kronecker product of the two linear-array responses.
    """
    w_h = spacing / wavelength * np.sin(phi) * np.sin(theta)
    w_v = spacing / wavelength * np.cos(theta)
    resp_h = np.exp(-2j * np.pi * w_h * np.arange(n_horizontal))
    resp_v = np.exp(-2j * np.pi * w_v * np.arange(n_vertical))
    return np.kron(resp_h, resp_v) / np.sqrt(n_horizontal * n_vertical)


def _centered_response(layout: ArrayLayout, theta, phi, wavelength) -> np.ndarray:
    """Array response referenced to the centroid, from actual positions."""
    direction = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    offsets = layout.positions - layout.centroid
    return np.exp(-2j * np.pi / wavelength * offsets @ direction) / np.sqrt(layout.size)


def far_field_channel(
    bs_layout: ArrayLayout,
    ue_layout: ArrayLayout,
    wavelength: float,
    path_gains,
    tx_gains,
    rx_gains,
    departure,
    arrival,
) -> np.ndarray:
    """Far-field multipath channel with shared per-path angles and gains.

    `departure` and `arrival` are (L, 2) arrays of (inclination, azimuth);
    arrival angles follow the look-back convention (pointing from the
    receiver toward the transmitter side).  Responses are referenced to the
    array centroids so this is the exact long-distance limit of
    :func:`assemble_channel` with centroid reference distances.
    """
    path_gains = np.asarray(path_gains, dtype=complex)
    tx_gains = np.asarray(tx_gains, dtype=float)
    rx_gains = np.asarray(rx_gains, dtype=float)
    departure = np.atleast_2d(np.asarray(departure, dtype=float))
    arrival = np.atleast_2d(np.asarray(arrival, dtype=float))
    L = path_gains.size
    M, N = ue_layout.size, bs_layout.size
    out = np.zeros((M, N), dtype=complex)
    for ell in range(L):
        a_tx = _centered_response(bs_layout, *departure[ell], wavelength)
        # The wave continues through the receiver: evaluate the manifold at
        # the propagation direction, the antipode of the look-back angles.
        a_rx = _centered_response(
            ue_layout, np.pi - arrival[ell, 0], arrival[ell, 1] + np.pi, wavelength
        )
        out += path_gains[ell] * tx_gains[ell] * rx_gains[ell] * np.outer(
            a_rx, a_tx.conj()
        )
    return np.sqrt(N * M / L) * out


def far_field_from_scenario(
    scenario: Scenario,
    user: int,
    tx_pattern: RadiationPattern,
    rx_pattern: RadiationPattern | None = None,
) -> np.ndarray:
    """Far-field approximation of a scenario user channel.

    Per-path angles are taken between array centroids and the path's hop
    point; gains and complex path coefficients use the reference distances.
    """
    rx_pattern = rx_pattern or isotropic_pattern()
    geom = scenario.geometries[user]
    bs_c = scenario.bs_layout.centroid
    ue_c = scenario.ue_layouts[user].centroid
    lam = scenario.wavelength

    departure = []
    arrival = []
    path_gains = []
    tx_gains = []
    rx_gains = []
    for ell in range(geom.n_paths):
        hop = ue_c if ell == 0 else scenario.scatterers[user][ell - 1]
        dep = to_spherical(hop - bs_c)
        arr = to_spherical(hop - ue_c) if ell > 0 else to_spherical(bs_c - ue_c)
        departure.append(dep)
        arrival.append(arr)
        d_ref = geom.ref_distances[ell]
        psi = geom.phases[ell, 0, 0]
        path_gains.append(
            (lam / (4.0 * np.pi * d_ref)) ** (geom.pathloss_exponent / 2.0)
            * np.exp(1j * psi)
        )
        tx_gains.append(tx_pattern.gain(*dep))
        rx_gains.append(rx_pattern.gain(*arr))
    return far_field_channel(
        scenario.bs_layout,
        scenario.ue_layouts[user],
        lam,
        path_gains,
        tx_gains,
        rx_gains,
        np.array(departure),
        np.array(arrival),
    )


# ---------------------------------------------------------------------------
# Lifted effective channels
# ---------------------------------------------------------------------------

@dataclass
class EffectiveChannel:
    """Lifted channel whose column block n spans antenna n's pattern choices."""

    matrix: np.ndarray  # (M, N * block_width) complex
    mode: str  # "sel" | "cof" | "plain"
    block_width: int

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[1] // self.block_width

    def block(self, n: int) -> np.ndarray:
        w = self.block_width
        return self.matrix[:, n * w : (n + 1) * w]

    def blocks(self) -> np.ndarray:
        """View shaped (M, N, block_width)."""
        return self.matrix.reshape(self.n_rx, self.n_antennas, self.block_width)


def selection_effective_channel(
    geom: PathGeometry,
    candidates: CandidateSet,
    rx_pattern: RadiationPattern | None = None,
) -> EffectiveChannel:
    """Lifted channel over a finite candidate set (M x N*S)."""
    rx_pattern = rx_pattern or isotropic_pattern()
    base = _base_factors(geom, rx_pattern)  # (L, M, N)
    gains = candidates.gain_vector(geom.aod_inclination, geom.aod_azimuth)  # (L, M, N, S)
    lifted = (base[..., None] * gains).sum(axis=0)
    M, N, L = geom.n_rx, geom.n_tx, geom.n_paths
    matrix = np.sqrt(N * M / L) * lifted.reshape(M, N * candidates.size)
    return EffectiveChannel(matrix=matrix, mode="sel", block_width=candidates.size)


def synthesis_effective_channel(
    geom: PathGeometry,
    degree: int,
    rx_pattern: RadiationPattern | None = None,
) -> EffectiveChannel:
    """Lifted channel over the harmonic basis up to `degree` (M x N*T)."""
    rx_pattern = rx_pattern or isotropic_pattern()
    base = _base_factors(geom, rx_pattern)
    basis = sphharm.sh_basis(geom.aod_inclination, geom.aod_azimuth, degree)
    lifted = (base[..., None] * basis).sum(axis=0)
    M, N, L = geom.n_rx, geom.n_tx, geom.n_paths
    width = sphharm.truncation_length(degree)
    matrix = np.sqrt(N * M / L) * lifted.reshape(M, N * width)
    return EffectiveChannel(matrix=matrix, mode="cof", block_width=width)


def compose(eff: EffectiveChannel, antenna_matrix: np.ndarray) -> np.ndarray:
    """Plain channel from a lifted one: column n is block n times row n of
    `antenna_matrix` (one-hot rows for selection, coefficient rows for
    synthesis)."""
    antenna_matrix = np.asarray(antenna_matrix)
    if antenna_matrix.shape != (eff.n_antennas, eff.block_width):
        raise ValueError(
            f"antenna matrix must have shape {(eff.n_antennas, eff.block_width)}, "
            f"got {antenna_matrix.shape}"
        )
    return np.einsum("mnw,nw->mn", eff.blocks(), antenna_matrix)


def selection_matrix(selection: np.ndarray, width: int) -> np.ndarray:
    """One-hot rows encoding per-antenna candidate indices."""
    selection = np.asarray(selection, dtype=int)
    out = np.zeros((selection.size, width))
    out[np.arange(selection.size), selection] = 1.0
    return out


def save_effective_channel(path, eff: EffectiveChannel) -> None:
    np.savez(
        path,
        matrix=eff.matrix,
        mode=np.array(eff.mode),
        block_width=np.array(eff.block_width),
    )


def load_effective_channel(path) -> EffectiveChannel:
    with np.load(path) as data:
        return EffectiveChannel(
            matrix=data["matrix"],
            mode=str(data["mode"]),
            block_width=int(data["block_width"]),
        )
