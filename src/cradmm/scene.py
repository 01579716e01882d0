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

Each input rule is defined once, at the end of this module, for the config
parser and the library's argument checks alike. A library check accepts Python
and numpy real scalars, never a bool, and raises ValueError for anything else;
a numpy scalar gives the results of the Python number it equals.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError

# the most complex128 entries one array can address
MAX_MATRIX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize

SPEED_OF_LIGHT_M_S = 299792458.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Acquisition geometry and noise settings for the surrogate scenario.

    Lengths are expressed in units of the center wavelength. The defaults
    describe the mm-wave demo setup: 31 reflector rotations times 3
    frequencies (93 measurement rows) observing a 50 x 50 x 10 voxel region
    of interest (25000 unknowns) whose center sits 195 wavelengths downrange
    of the virtual focal point. The voxel pitch is ``roi_extent / grid`` per
    axis.
    """

    n_theta: int = 31
    n_freq: int = 3
    grid: tuple = (50, 50, 10)
    roi_offset_z0: float = 195.0
    roi_extent: tuple = (36.0, 36.0, 7.5)
    center_freq_hz: float = 60.0e9
    bandwidth_hz: float = 6.0e9
    rng_seed: int = 0
    snr_db: float = math.inf

    def __post_init__(self):  # a numpy scalar becomes the Python number it equals: no length is float32
        for name, value in list(vars(self).items()):
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())

    @property
    def n_measurements(self):
        return self.n_theta * self.n_freq

    @property
    def n_voxels(self):  # as Python ints: numpy grid counts would wrap
        return math.prod(map(int, self.grid))

    def violations(self):
        """Return a list of invariant violations (empty when valid)."""
        out = [f"{name}: {INT_GE1.message}" for name in ("n_theta", "n_freq")
               if not INT_GE1.accepts(getattr(self, name))]
        if not _three(self.grid, INT_GE1):
            out.append("grid: must be three integer voxel counts >= 1")
        elif not out and self.n_measurements * self.n_voxels > MAX_MATRIX_ENTRIES:  # both counts are valid
            out.append("grid: with n_theta * n_freq rows and one column per voxel, "
                       "the sensing matrix exceeds the addressable size")
        if not _three(self.roi_extent, FINITE_GT0):
            out.append("roi_extent: must be three finite lengths > 0")
        for name, quantity in (("roi_offset_z0", "length"), ("center_freq_hz", "frequency")):
            if not FINITE_GT0.accepts(getattr(self, name)):
                out.append(f"{name}: must be a finite {quantity} > 0")
        if not FINITE_GE0.accepts(self.bandwidth_hz):
            out.append("bandwidth_hz: must be a finite frequency >= 0")
        if not INT_GE0.accepts(self.rng_seed):
            out.append(f"rng_seed: {INT_GE0.message}")
        if not SNR_DB.accepts(self.snr_db):
            out.append(f"snr_db: {SNR_DB.message}")
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
    """Complex reflectivity on the config's voxel grid, stored in flat x-fastest order."""

    reflectivity: np.ndarray


@dataclass(frozen=True)
class SensingMatrix:
    """Dense complex measurement operator, rows ordered rotation-major.

    Row r * n_freq + f of ``entries`` measures rotation r at frequency index f.
    """

    entries: np.ndarray


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
        if not (is_real(amplitude) or isinstance(amplitude, (complex, np.complexfloating))):
            raise ValueError(f"target {idx}: amplitude must be a number")
        bad = target_violations(((x0, x1), (y0, y1), (z0, z1)), (amplitude.real, amplitude.imag),
                                config.grid, f"target {idx}: ", f"target {idx}: amplitude ")
        if bad:
            raise ValueError(bad[0])
        vol[z0:z1, y0:y1, x0:x1] += complex(amplitude)
    return Scene(reflectivity=vol.ravel())


def allocate_sensing_entries(config):
    """An uninitialised n_measurements x n_voxels complex128 array, the size of H.

    MemoryError when H does not fit in memory. Until its pages are written
    they hold no memory, so an array left untouched reserves nothing.
    """
    return np.empty((config.n_measurements, config.n_voxels), dtype=np.complex128)


def sensing_blocks(config):
    """The rows of the surrogate sensing matrix, one rotation at a time.

    Validates ``config``, then returns an iterator over the n_theta blocks in
    rotation order: block r holds rows r * n_freq to (r + 1) * n_freq - 1,
    an n_freq x n_voxels complex128 array. Entry (row (r, f), voxel p) is

        (1 / d_p^2) * exp(-2j k_f d_p + j phi(r, p)),

    where d_p is the distance from the virtual focal point to the voxel center,
    k_f the wavenumber at the f-th sampling frequency, and phi a code phase
    uniform on [0, 2 pi) keyed by (rng_seed, r, p). The code phase is shared by
    every frequency within a rotation, so rows of one rotation differ only
    through the wavenumber. Distances are strictly positive, hence no row is
    all-zero. Each block is a new array; only the frequency factors (one
    block's size) are kept between blocks.
    """
    config.validate()
    d = np.linalg.norm(config.voxel_centers_m() - config.focal_point_m(), axis=1)
    amplitude = 1.0 / d**2
    # amplitude and range phase depend on the frequency alone, not on the rotation;
    # built in place, so no n_p-sized temporary is held beside the n_freq x n_p result
    factors = np.multiply.outer(-2j * (2.0 * np.pi * config.frequencies_hz() / SPEED_OF_LIGHT_M_S), d)
    np.exp(factors, out=factors)
    factors *= amplitude
    return (_rotation_block(config, factors, r) for r in range(config.n_theta))


def _rotation_block(config, factors, r):
    # one phase stream per (seed, rotation); position in the stream is the voxel index
    phase = np.random.default_rng([config.rng_seed, r]).uniform(0.0, 2.0 * np.pi, config.n_voxels)
    code = np.exp(1j * phase)
    block = np.empty(factors.shape, dtype=np.complex128)
    for f, factor in enumerate(factors):
        np.multiply(factor, code, out=block[f])
    return block


def synthesize_sensing_matrix(config):
    """The whole surrogate sensing matrix: the blocks of ``sensing_blocks``, stacked.

    Its array comes from ``allocate_sensing_entries``; row r * n_freq + f is
    row f of rotation block r.
    """
    blocks = sensing_blocks(config)
    entries = allocate_sensing_entries(config)
    for r, block in enumerate(blocks):
        entries[r * config.n_freq:(r + 1) * config.n_freq] = block
    return SensingMatrix(entries=entries)


def rows_times(rows, u, n_rows):
    """rows @ u for a block of rows of an ``n_rows``-row H, rounded as H @ u rounds them.

    numpy takes a one-row product as a dot product and the product of a
    taller H as a matrix-vector product, and the two sum in different
    orders. A one-row block of a taller H is therefore multiplied stacked on
    itself, a two-row matrix-vector product.
    """
    if len(rows) == 1 and n_rows > 1:
        return (np.vstack((rows, rows)) @ u)[:1]
    return rows @ u


def forward_measure(h, scene, snr_db, seed):
    """Apply the forward model H u, then add noise as ``add_noise`` does.

    ``cradmm generate`` never holds H: it sums H u block by block with
    ``rows_times`` and passes the result to ``add_noise``, which gives the
    same bytes. ``seed`` follows ``add_noise``'s rule.
    """
    entries = matrix_array(h)
    u = vector_array(scene)
    if entries.shape[1] != u.shape[0]:
        raise ValueError(f"matrix has {entries.shape[1]} columns but scene has {u.shape[0]} voxels")
    return add_noise(entries @ u, snr_db, seed)


def add_noise(clean, snr_db, seed):
    """The measurement ``clean`` plus circularly-symmetric complex noise.

    The per-sample noise variance is chosen so the expected SNR
    10 log10(||clean||^2 / E||w||^2) equals ``snr_db``. An infinite snr_db, or a
    zero signal, yields exactly zero noise (the zero-signal case is flagged
    with an infinite realized SNR). ``clean`` is a 1-D array-like (see
    ``vector_array``); ``seed`` is an integer >= 0, the config's ``noise_seed``
    rule, so every draw is reproducible. ValueError when a negative snr_db
    puts the noise power, or the realized noise power, beyond the float range.
    """
    clean = vector_array(clean)
    snr_db = SNR_DB.require(snr_db, "snr_db must be a real value or +infinity")
    seed = INT_GE0.require(seed, "seed must be an integer >= 0")
    signal_power = float(np.real(np.vdot(clean, clean)))
    if math.isinf(snr_db) or signal_power == 0.0:
        return Measurement(g=clean, noise_power=0.0, realized_snr_db=math.inf)
    n_t = clean.shape[0]
    beyond = f"snr_db {snr_db} gives a noise power beyond the float range"
    try:
        noise_power = signal_power * 10.0 ** (-snr_db / 10.0) / n_t
    except OverflowError:  # the power of ten itself
        noise_power = math.inf
    if not math.isfinite(noise_power):
        raise ValueError(beyond)
    rng = np.random.default_rng(seed)
    w = math.sqrt(noise_power / 2.0) * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    realized = float(np.real(np.vdot(w, w)))
    if not math.isfinite(realized):
        raise ValueError(beyond)
    realized_snr = math.inf if realized == 0.0 else 10.0 * math.log10(signal_power / realized)
    return Measurement(g=clean + w, noise_power=noise_power, realized_snr_db=realized_snr)


def is_integer(x):
    """A Python or numpy integer that is not a bool: JSON ``true`` is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x):
    """A Python or numpy integer or float that is not a bool: JSON ``true`` is not a number."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def is_finite_real(x):
    """A real (see is_real) that is a finite float: an int beyond the float range is not."""
    try:
        return is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


class Check(NamedTuple):
    """One input rule: its predicate, the config parser's message, and the form a value is kept in."""

    accepts: Callable
    message: str
    convert: Callable = lambda x: x

    def require(self, value, message):
        """``value`` in its kept form, for a library argument; ValueError(message) when refused."""
        if not self.accepts(value):
            raise ValueError(message)
        return self.convert(value)


FINITE_GE0 = Check(lambda x: is_finite_real(x) and x >= 0, "must be a finite number >= 0", float)
FINITE_GT0 = Check(lambda x: is_finite_real(x) and x > 0, "must be a finite number > 0", float)
IN_UNIT = Check(lambda x: is_real(x) and 0 < x < 1, "must lie in (0, 1)", float)
INT_GE1 = Check(lambda x: is_integer(x) and x >= 1, "must be an integer >= 1", int)
INT_GE0 = Check(lambda x: is_integer(x) and x >= 0, "must be an integer >= 0", int)
SNR_DB = Check(lambda x: is_finite_real(x) or is_real(x) and x == math.inf,
               "must be a real value or +infinity", float)


def block_count(rows):
    """The rule for the number of ADMM row blocks of ``rows`` measurement rows."""
    return Check(lambda n: is_integer(n) and 1 <= n <= rows,
                 f"must be an integer in [1, {rows}] (the measurement count)", int)


def target_violations(box, parts, grid, box_prefix, amplitude_prefix):
    """Messages for a target, three (lo, hi) pairs and real amplitude parts, on ``grid``.

    A non-finite amplitude is its only violation; else each axis whose range is
    not integers with 0 <= lo < hi <= voxel count is one, in x, y, z order.
    """
    if not all(is_finite_real(part) for part in parts):
        return [f"{amplitude_prefix}must be finite"]
    return [f"{box_prefix}{axis} range [{lo}, {hi}) outside grid of {limit} voxels"
            for (lo, hi), limit, axis in zip(box, grid, "xyz")
            if not (is_integer(lo) and is_integer(hi) and 0 <= lo < hi <= limit)]


def _three(values, rule):
    return isinstance(values, (tuple, list)) and len(values) == 3 and all(map(rule.accepts, values))
