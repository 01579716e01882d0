"""Phantom scenes, a surrogate coded-reflector sensing matrix, and noisy measurements.

The measurement model is linear: a complex reflectivity vector u on a 3-D voxel
grid is observed as g = H u + w, where each row of H belongs to one (reflector
rotation, frequency) pair. A real coded-aperture system would obtain H from an
electromagnetic solver; here H is synthesized deterministically while keeping
the structure the solvers care about: a pseudo-random code phase per voxel that
changes with the rotation but is shared by all frequencies within it, plus a
range-dependent amplitude and phase roll-off from a virtual focal point.

Voxel ordering is fixed package-wide: x varies fastest, then y, then z, so the
flat index of voxel (ix, iy, iz) is ix + nx * (iy + ny * iz).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SPEED_OF_LIGHT_M_S = 299792458.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Acquisition geometry and noise settings for the surrogate scenario.

    Lengths are expressed in units of the center wavelength. The defaults
    describe the mm-wave demo setup: 31 reflector rotations times 3
    frequencies (93 measurement rows) observing a 50 x 50 x 10 voxel region
    of interest (25000 unknowns) whose center sits 195 wavelengths downrange
    of the virtual focal point. ``voxel_size_l`` is the nominal cube edge of
    the scenario and is carried along as a documented constant; the voxel
    pitch actually used is ``roi_extent / grid`` per axis.
    """

    n_theta: int = 31
    n_freq: int = 3
    grid: tuple = (50, 50, 10)
    voxel_size_l: float = 1.5
    roi_offset_z0: float = 195.0
    roi_extent: tuple = (36.0, 36.0, 7.5)
    center_freq_hz: float = 60.0e9
    bandwidth_hz: float = 6.0e9
    rng_seed: int = 0
    snr_db: float = math.inf

    @property
    def n_measurements(self):
        return self.n_theta * self.n_freq

    @property
    def n_voxels(self):
        nx, ny, nz = self.grid
        return nx * ny * nz

    def violations(self):
        """Return a list of invariant violations (empty when valid)."""
        out = []
        if not (is_integer(self.n_theta) and self.n_theta >= 1):
            out.append("n_theta: must be an integer >= 1")
        if not (is_integer(self.n_freq) and self.n_freq >= 1):
            out.append("n_freq: must be an integer >= 1")
        grid_ok = (
            isinstance(self.grid, (tuple, list))
            and len(self.grid) == 3
            and all(is_integer(n) and n >= 1 for n in self.grid)
        )
        if not grid_ok:
            out.append("grid: must be three integer voxel counts >= 1")
        extent_ok = (
            isinstance(self.roi_extent, (tuple, list))
            and len(self.roi_extent) == 3
            and all(_finite_positive(e) for e in self.roi_extent)
        )
        if not extent_ok:
            out.append("roi_extent: must be three finite lengths > 0")
        if not _finite_positive(self.voxel_size_l):
            out.append("voxel_size_l: must be a finite length > 0")
        if not _finite_positive(self.roi_offset_z0):
            out.append("roi_offset_z0: must be a finite length > 0")
        if not _finite_positive(self.center_freq_hz):
            out.append("center_freq_hz: must be a finite frequency > 0")
        if not (is_finite_real(self.bandwidth_hz) and self.bandwidth_hz >= 0):
            out.append("bandwidth_hz: must be a finite frequency >= 0")
        if not (is_integer(self.rng_seed) and self.rng_seed >= 0):
            out.append("rng_seed: must be an integer >= 0")
        if not _snr_ok(self.snr_db):
            out.append("snr_db: must be a real value or +infinity")
        return out

    def validate(self):
        bad = self.violations()
        if bad:
            raise ConfigError(bad)
        return self

    def wavelength_m(self):
        """Center wavelength in meters."""
        return SPEED_OF_LIGHT_M_S / self.center_freq_hz

    def frequencies_hz(self):
        """The n_freq sampling frequencies, evenly spaced across the band."""
        if self.n_freq == 1:
            return np.array([self.center_freq_hz])
        half = 0.5 * self.bandwidth_hz
        return np.linspace(self.center_freq_hz - half, self.center_freq_hz + half, self.n_freq)

    def voxel_centers_m(self):
        """Voxel center coordinates in meters, ROI centered at the origin.

        Returns an (n_voxels, 3) array in the package-wide flat order
        (x fastest, then y, then z).
        """
        lam_c = self.wavelength_m()
        nx, ny, nz = self.grid
        ext = np.asarray(self.roi_extent, dtype=float) * lam_c
        axes = []
        for count, width in zip((nx, ny, nz), ext):
            pitch = width / count
            axes.append((np.arange(count) + 0.5) * pitch - 0.5 * width)
        zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
        return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)

    def focal_point_m(self):
        """Virtual focal point, on the boresight axis behind the ROI center."""
        return np.array([0.0, 0.0, -self.roi_offset_z0 * self.wavelength_m()])


@dataclass(frozen=True)
class Scene:
    """Complex reflectivity on a voxel grid, stored in flat x-fastest order."""

    reflectivity: np.ndarray
    grid: tuple

    @property
    def support(self):
        """Indices of the nonzero voxels."""
        return np.flatnonzero(self.reflectivity)


@dataclass(frozen=True)
class SensingMatrix:
    """Dense complex measurement operator with per-row (rotation, frequency) labels.

    Rows are ordered rotation-major: row r * n_freq + f measures rotation r
    at frequency index f.
    """

    entries: np.ndarray
    row_meta: tuple

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class Measurement:
    """Measured field data g = H u + w.

    ``noise_power`` is the per-sample variance of the complex noise;
    ``realized_snr_db`` is computed from the actual noise draw and is
    infinite when the draw is exactly zero.
    """

    g: np.ndarray
    noise_power: float
    realized_snr_db: float


def matrix_array(h):
    """Dense complex ndarray behind ``h`` (a SensingMatrix or any 2-D array-like)."""
    entries = h.entries if isinstance(h, SensingMatrix) else h
    a = np.asarray(entries)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a.astype(np.complex128, copy=False)


def vector_array(x):
    """Complex ndarray behind ``x`` (a Measurement, Scene, or any 1-D array-like)."""
    if isinstance(x, Measurement):
        data = x.g
    elif isinstance(x, Scene):
        data = x.reflectivity
    else:
        data = x
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    return a.astype(np.complex128, copy=False)


def build_phantom(config, targets):
    """Sum axis-aligned voxel boxes into a reflectivity volume.

    Each target is a (box, amplitude) pair with box given as half-open index
    ranges ((x0, x1), (y0, y1), (z0, z1)). Overlapping boxes add.
    """
    config.validate()
    nx, ny, nz = config.grid
    vol = np.zeros((nz, ny, nx), dtype=np.complex128)
    for idx, (box, amplitude) in enumerate(targets):
        try:
            (x0, x1), (y0, y1), (z0, z1) = box
        except (TypeError, ValueError):
            raise ValueError(f"target {idx}: box must be three (lo, hi) index pairs") from None
        for lo, hi, limit, axis in ((x0, x1, nx, "x"), (y0, y1, ny, "y"), (z0, z1, nz, "z")):
            if not (isinstance(lo, int) and isinstance(hi, int) and 0 <= lo < hi <= limit):
                raise ValueError(
                    f"target {idx}: {axis} range [{lo}, {hi}) outside grid of {limit} voxels"
                )
        amplitude = complex(amplitude)
        if not (math.isfinite(amplitude.real) and math.isfinite(amplitude.imag)):
            raise ValueError(f"target {idx}: amplitude must be finite")
        vol[z0:z1, y0:y1, x0:x1] += amplitude
    return Scene(reflectivity=vol.ravel(), grid=tuple(config.grid))


def synthesize_sensing_matrix(config):
    """Deterministic surrogate sensing matrix for the configured scenario.

    Entry (row (r, f), voxel p) is (1 / d_p^2) * exp(-2j k_f d_p + j phi(r, p)),
    where d_p is the distance from the virtual focal point to the voxel center,
    k_f the wavenumber at the f-th sampling frequency, and phi a code phase
    uniform on [0, 2 pi) keyed by (rng_seed, r, p). The code phase is shared by
    every frequency within a rotation, so rows of one rotation differ only
    through the wavenumber. Distances are strictly positive, hence no row is
    all-zero.
    """
    config.validate()
    centers = config.voxel_centers_m()
    d = np.linalg.norm(centers - config.focal_point_m(), axis=1)
    amplitude = 1.0 / d**2
    freqs = config.frequencies_hz()
    n_p = config.n_voxels
    entries = np.empty((config.n_measurements, n_p), dtype=np.complex128)
    row_meta = []
    for r in range(config.n_theta):
        # one phase stream per (seed, rotation); position in the stream is the voxel index
        phase = np.random.default_rng([config.rng_seed, r]).uniform(0.0, 2.0 * np.pi, n_p)
        code = np.exp(1j * phase)
        for f, freq in enumerate(freqs):
            k = 2.0 * np.pi * freq / SPEED_OF_LIGHT_M_S
            entries[r * config.n_freq + f] = amplitude * np.exp(-2j * k * d) * code
            row_meta.append((r, f))
    return SensingMatrix(entries=entries, row_meta=tuple(row_meta))


def forward_measure(h, scene, snr_db, seed):
    """Apply the forward model and add circularly-symmetric complex noise.

    The per-sample noise variance is chosen so the expected SNR
    10 log10(||Hu||^2 / E||w||^2) equals ``snr_db``. An infinite snr_db, or a
    zero signal, yields exactly zero noise (the zero-signal case is flagged
    with an infinite realized SNR).
    """
    entries = matrix_array(h)
    u = vector_array(scene)
    if entries.shape[1] != u.shape[0]:
        raise ValueError(f"matrix has {entries.shape[1]} columns but scene has {u.shape[0]} voxels")
    if not _snr_ok(snr_db):
        raise ValueError("snr_db must be a real value or +infinity")
    clean = entries @ u
    signal_power = float(np.real(np.vdot(clean, clean)))
    if math.isinf(snr_db) or signal_power == 0.0:
        return Measurement(g=clean, noise_power=0.0, realized_snr_db=math.inf)
    n_t = entries.shape[0]
    noise_power = signal_power * 10.0 ** (-snr_db / 10.0) / n_t
    rng = np.random.default_rng(seed)
    w = math.sqrt(noise_power / 2.0) * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    realized = float(np.real(np.vdot(w, w)))
    realized_snr = math.inf if realized == 0.0 else 10.0 * math.log10(signal_power / realized)
    return Measurement(g=clean + w, noise_power=noise_power, realized_snr_db=realized_snr)


def is_integer(x):
    """An int that is not a bool: JSON ``true`` is not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x):
    """An int or float that is not a bool: JSON ``true`` is not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_finite_real(x):
    """A real (see is_real) that is a finite float: an int beyond the float range is not."""
    try:
        return is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _finite_positive(x):
    return is_finite_real(x) and x > 0


def _snr_ok(x):
    return is_finite_real(x) or is_real(x) and x == math.inf
