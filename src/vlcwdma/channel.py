"""Per-wavelength optical channel computation.

The received optical path gain from an access point to a detector branch is
accumulated as a time-binned impulse response:

  order 0 (LOS):    g = (m+1)/(2*pi*d^2) * A_pd * cos^m(phi) * cos(theta)
                    for incidence theta <= FOV and cos(phi) > 0
  order 1:          AP -> element -> detector, weighted by the element's
                    capture area, its reflectivity rho(wl), ideal Lambertian
                    re-emission (m = 1) and detector capture with FOV gating
  order 2:          AP -> element -> element -> detector, one rho per bounce

Chain delay is total path length over c, rounded to the nearest time bin.
DC gain is the bin sum; the 3-dB bandwidth is the lowest frequency where the
electrical power response |H(f)|^2 drops to half of |H(0)|^2.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fileio import atomic_write
from .geometry import Vec3
from .scene import (
    WAVELENGTHS,
    AccessPointSpec,
    BranchSpec,
    Scene,
    Wavelength,
    default_branches,
)

SPEED_OF_LIGHT_M_S = 2.998e8
DEFAULT_DT_S = 0.05e-9           # 20 GHz sampling, Nyquist 10 GHz
DEFAULT_F_CAP_HZ = 10e9          # reported when no bandwidth limit binds below it
FREQ_RESOLUTION_HZ = 10e6        # max spacing of the transform grid

# Reported channel bandwidth is the tighter of the spectral -3 dB crossing
# and the dispersion (ISI) limit B = k / D with D the rms delay spread.
# LOS-dominated indoor responses keep |H(f)|^2 within 3 dB of DC out to
# arbitrarily high frequencies, so the dispersion limit is what bounds the
# usable rate there. The factor is a calibrated model constant.
DEFAULT_DISPERSION_FACTOR = 0.3


@dataclass(frozen=True)
class ImpulseResponse:
    """Time-binned received optical power fractions for one path set."""

    dt: float
    t0: float
    bins: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"bin width must be positive, got {self.dt}")
        bins = np.asarray(self.bins, dtype=float)
        if bins.ndim != 1 or bins.size == 0:
            raise ValueError("bins must be a non-empty 1-D array")
        if np.any(bins < 0.0):
            raise ValueError("impulse response bins must be >= 0")
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.bins.size)


@dataclass(frozen=True)
class ChannelMetrics:
    """Summary of one (user, branch, AP, wavelength) channel."""

    dc_gain: float
    bandwidth_hz: float
    bandwidth_capped: bool
    rms_delay_spread_s: float
    los_blocked: bool


def los_contribution(
    ap: AccessPointSpec, rx_pos: Vec3, branch: BranchSpec
) -> tuple[float, float]:
    """Line-of-sight path gain and propagation delay.

    Returns (0, delay) when the AP is outside the branch FOV or behind the
    AP emission hemisphere.
    """
    v = rx_pos - ap.position
    d = v.norm()
    if d == 0.0:
        raise ValueError("AP and receiver positions coincide")
    u = v.scaled(1.0 / d)
    cos_phi = u.dot(ap.orientation)
    cos_theta = (-u.x) * branch.normal.x + (-u.y) * branch.normal.y + (-u.z) * branch.normal.z
    delay = d / SPEED_OF_LIGHT_M_S
    if cos_phi <= 0.0 or cos_theta < np.cos(np.radians(branch.fov_deg)):
        return 0.0, delay
    m = ap.lambertian_m
    gain = (m + 1.0) / (2.0 * np.pi * d * d) * branch.area_m2 * cos_phi**m * cos_theta
    return float(gain), float(delay)


def _ap_illumination(scene: Scene, ap: AccessPointSpec, order: int):
    """First-hop irradiation of each element: captured power fraction + distance."""
    es = scene.elements(order)
    v = es.centers - ap.position.as_array()
    d = np.linalg.norm(v, axis=1)
    m = ap.lambertian_m
    # an element centred on the AP (d = 0) lies in its ceiling plane: NaN cos_phi gates it to 0
    with np.errstate(invalid="ignore", divide="ignore"):
        u = v / d[:, None]
        cos_phi = u @ ap.orientation.as_array()
        cos_in = -np.einsum("ij,ij->i", u, es.normals)
        E = np.where(
            (cos_phi > 0.0) & (cos_in > 0.0),
            (m + 1.0) / (2.0 * np.pi * d * d) * cos_phi**m * cos_in * es.areas,
            0.0,
        )
    return E, d


def _receiver_capture(scene: Scene, rx: np.ndarray, branch: BranchSpec, order: int):
    """Last-hop capture from each element into the branch, FOV-gated."""
    es = scene.elements(order)
    w = es.centers - rx
    dr = np.linalg.norm(w, axis=1)
    u = w / dr[:, None]
    cos_det = u @ branch.normal.as_array()          # incidence at the detector
    cos_out = -np.einsum("ij,ij->i", u, es.normals)  # exit at the element
    gate = (cos_out > 0.0) & (cos_det >= np.cos(np.radians(branch.fov_deg)))
    R = np.where(gate, cos_out * branch.area_m2 * cos_det / (np.pi * dr * dr), 0.0)
    return R, dr


def _transfer_matrix(scene: Scene):
    """Element-to-element Lambertian transfer on the second-order grid."""
    es = scene.elements(2)
    diff = es.centers[None, :, :] - es.centers[:, None, :]
    d = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(d, np.inf)  # no self-transfer
    cos_out = np.einsum("ijk,ik->ij", diff, es.normals) / d
    cos_in = -np.einsum("ijk,jk->ij", diff, es.normals) / d
    T = np.where((cos_out > 0.0) & (cos_in > 0.0), cos_out * cos_in * es.areas[None, :] / (np.pi * d * d), 0.0)
    return T, np.where(np.isinf(d), 0.0, d)


def _accumulate(
    scene: Scene,
    ap: AccessPointSpec,
    rx: np.ndarray,
    branch: BranchSpec,
    dt: float,
    illum: dict,
    capture: dict,
    transfer,
):
    """Bin all path chains up to the highest order keyed in ``illum``.

    ``illum[o]`` and ``capture[o]`` are the order-o arrays of _ap_illumination
    and _receiver_capture; ``transfer`` is _transfer_matrix's, for order 2.
    Returns (bins[wavelength, n_bins], los_gain). Bin k covers time k*dt.
    """
    g0, t0 = los_contribution(ap, Vec3.from_iterable(rx), branch)
    los_idx = int(round(t0 / dt))
    n_bins = los_idx + 1

    chains = []  # (indices, weights[n, 4])
    for order, (E, d_ap) in illum.items():
        es = scene.elements(order)
        R, d_rx = capture[order]
        if order == 1:
            geo = E * R
            sel = np.nonzero(geo > 0.0)[0]
            if sel.size:
                delays = (d_ap[sel] + d_rx[sel]) / SPEED_OF_LIGHT_M_S
                idx = np.rint(delays / dt).astype(np.int64)
                weights = geo[sel, None] * es.reflectivity[sel, :]
                chains.append((idx, weights))
                n_bins = max(n_bins, int(idx.max()) + 1)
        else:
            T, d12 = transfer
            ii = np.nonzero(E > 0.0)[0]
            jj = np.nonzero(R > 0.0)[0]
            if ii.size and jj.size:
                Tsub = T[np.ix_(ii, jj)]
                geo = E[ii, None] * Tsub * R[None, jj]
                delays = (d_ap[ii, None] + d12[np.ix_(ii, jj)] + d_rx[None, jj]) / SPEED_OF_LIGHT_M_S
                idx = np.rint(delays / dt).astype(np.int64).ravel()
                # one reflectivity factor per bounce
                weights = geo.ravel()[:, None] * (
                    es.reflectivity[ii, :][:, None, :] * es.reflectivity[jj, :][None, :, :]
                ).reshape(-1, len(WAVELENGTHS))
                chains.append((idx, weights))
                if idx.size:
                    n_bins = max(n_bins, int(idx.max()) + 1)

    bins = np.zeros((len(WAVELENGTHS), n_bins))
    if g0 > 0.0:
        bins[:, los_idx] += g0
    for idx, weights in chains:
        for k in range(len(WAVELENGTHS)):
            bins[k, :] += np.bincount(idx, weights=weights[:, k], minlength=n_bins)
    return bins, g0


def _trim(bins_1d: np.ndarray, dt: float) -> ImpulseResponse:
    nz = np.nonzero(bins_1d)[0]
    if nz.size == 0:
        return ImpulseResponse(dt=dt, t0=0.0, bins=np.zeros(1))
    return ImpulseResponse(dt=dt, t0=float(nz[0] * dt), bins=bins_1d[nz[0] : nz[-1] + 1].copy())


def impulse_response(
    scene: Scene,
    ap: AccessPointSpec,
    rx_pos: Vec3,
    branch: BranchSpec,
    wavelength: Wavelength,
    max_order: int = 2,
    dt: float = DEFAULT_DT_S,
) -> ImpulseResponse:
    """Impulse response of one (AP, receiver branch, wavelength) path set."""
    if max_order not in (0, 1, 2):
        raise ValueError(f"max_order must be 0, 1 or 2, got {max_order}")
    if ap not in scene.room.aps:
        raise ValueError("AP is not part of the scene")
    rx = rx_pos.as_array()
    orders = range(1, max_order + 1)
    illum = {o: _ap_illumination(scene, ap, o) for o in orders}
    capture = {o: _receiver_capture(scene, rx, branch, o) for o in orders}
    transfer = _transfer_matrix(scene) if max_order == 2 else None
    bins, _ = _accumulate(scene, ap, rx, branch, dt, illum, capture, transfer)
    return _trim(bins[wavelength.index], dt)


def dc_gain(ir: ImpulseResponse) -> float:
    return float(ir.bins.sum())


def _spectrum(ir: ImpulseResponse):
    n_min = int(np.ceil(1.0 / (FREQ_RESOLUTION_HZ * ir.dt)))
    n = 1 << int(np.ceil(np.log2(max(ir.bins.size, n_min))))
    H = np.fft.rfft(ir.bins, n=n)
    power = np.abs(H) ** 2
    return np.fft.rfftfreq(n, ir.dt), power / power[0]


def bandwidth_3db_flagged(ir: ImpulseResponse, f_cap: float = DEFAULT_F_CAP_HZ) -> tuple[float, bool]:
    """3-dB electrical bandwidth plus a flag set when no crossing exists below f_cap."""
    if f_cap <= 0.0:
        raise ValueError(f"f_cap must be positive, got {f_cap}")
    if dc_gain(ir) <= 0.0:
        raise ValueError("3-dB bandwidth undefined for zero DC gain")
    freqs, ratio = _spectrum(ir)
    below = np.nonzero(ratio <= 0.5)[0]
    if below.size == 0:
        return f_cap, True
    i = int(below[0])
    f = freqs[i - 1] + (0.5 - ratio[i - 1]) * (freqs[i] - freqs[i - 1]) / (ratio[i] - ratio[i - 1])
    if f > f_cap:
        return f_cap, True
    return float(f), False


def rms_delay_spread(ir: ImpulseResponse) -> float:
    """Power-squared-weighted RMS spread of the arrival times."""
    if dc_gain(ir) <= 0.0:
        raise ValueError("delay spread undefined for zero DC gain")
    w = ir.bins**2
    sw = w.sum()
    t = ir.times
    mu = float((t * w).sum() / sw)
    return float(np.sqrt(((t - mu) ** 2 * w).sum() / sw))


def metrics_from_response(
    ir: ImpulseResponse,
    f_cap: float = DEFAULT_F_CAP_HZ,
    los_blocked: bool = False,
    dispersion_factor: float = DEFAULT_DISPERSION_FACTOR,
) -> ChannelMetrics:
    """DC gain, delay spread and the reported bandwidth of one response.

    The reported bandwidth is min(spectral -3 dB point, dispersion limit
    dispersion_factor / rms spread). A single-impulse response has zero
    spread and a flat spectrum, so it reports f_cap with the capped flag set.
    """
    g = dc_gain(ir)
    if g <= 0.0:
        return ChannelMetrics(0.0, f_cap, True, 0.0, los_blocked)
    bw, capped = bandwidth_3db_flagged(ir, f_cap)
    spread = rms_delay_spread(ir)
    if spread > 0.0:
        dispersion = dispersion_factor / spread
        if dispersion < bw:
            bw, capped = min(dispersion, f_cap), dispersion >= f_cap
    return ChannelMetrics(g, bw, capped, spread, los_blocked)


class GainTable:
    """Dense channel summary over users x branches x APs x wavelengths.

    This is the allocator's sole physics input: it carries the DC gains,
    per-link bandwidths and the per-(AP, wavelength) transmit powers needed
    to turn gains into photocurrents.
    """

    def __init__(
        self,
        user_positions: Sequence[Vec3],
        n_branches: int,
        n_aps: int,
        dc: np.ndarray,
        bandwidth_hz: np.ndarray,
        bandwidth_capped: np.ndarray,
        delay_spread_s: np.ndarray,
        los_blocked: np.ndarray,
        tx_power_w: np.ndarray,
        scene_fingerprint: str = "",
        max_order: int = 2,
    ):
        shape = (len(user_positions), n_branches, n_aps, len(WAVELENGTHS))
        for name, arr in (("dc", dc), ("bandwidth_hz", bandwidth_hz),
                          ("bandwidth_capped", bandwidth_capped),
                          ("delay_spread_s", delay_spread_s), ("los_blocked", los_blocked)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if tx_power_w.shape != (n_aps, len(WAVELENGTHS)):
            raise ValueError(f"tx_power_w has shape {tx_power_w.shape}, expected {(n_aps, len(WAVELENGTHS))}")
        if np.any(dc < 0.0) or np.any(bandwidth_hz <= 0.0) or np.any(delay_spread_s < 0.0):
            raise ValueError("gain table entries violate metric invariants")
        self.user_positions = [Vec3.from_iterable((p.x, p.y, p.z)) for p in user_positions]
        self.n_users = len(user_positions)
        self.n_branches = n_branches
        self.n_aps = n_aps
        self.dc = dc
        self.bandwidth_hz = bandwidth_hz
        self.bandwidth_capped = bandwidth_capped
        self.delay_spread_s = delay_spread_s
        self.los_blocked = los_blocked
        self.tx_power_w = tx_power_w
        self.scene_fingerprint = scene_fingerprint
        self.max_order = max_order
        for arr in (dc, bandwidth_hz, bandwidth_capped, delay_spread_s, los_blocked, tx_power_w):
            arr.setflags(write=False)

    def metrics(self, user: int, branch: int, ap: int, wl: Wavelength) -> ChannelMetrics:
        k = wl.index
        return ChannelMetrics(
            dc_gain=float(self.dc[user, branch, ap, k]),
            bandwidth_hz=float(self.bandwidth_hz[user, branch, ap, k]),
            bandwidth_capped=bool(self.bandwidth_capped[user, branch, ap, k]),
            rms_delay_spread_s=float(self.delay_spread_s[user, branch, ap, k]),
            los_blocked=bool(self.los_blocked[user, branch, ap, k]),
        )

    def write_csv(self, path: str) -> None:
        rows = []
        for u in range(self.n_users):
            for b in range(self.n_branches):
                for a in range(self.n_aps):
                    for wl in WAVELENGTHS:
                        k = wl.index
                        rows.append([
                            u, b + 1, a + 1, wl.value,
                            repr(float(self.dc[u, b, a, k])),
                            repr(float(self.bandwidth_hz[u, b, a, k])),
                            int(self.bandwidth_capped[u, b, a, k]),
                            repr(float(self.delay_spread_s[u, b, a, k])),
                            int(self.los_blocked[u, b, a, k]),
                            repr(float(self.tx_power_w[a, k])),
                        ])
        header_meta = [
            f"# fingerprint={self.scene_fingerprint}",
            f"# max_order={self.max_order}",
            "# users=" + ";".join(f"{p.x!r},{p.y!r},{p.z!r}" for p in self.user_positions),
        ]
        atomic_write(path, "\n".join(header_meta) + "\n"
                      + "user,branch,ap,wavelength,dc_gain,bandwidth_hz,bandwidth_capped,delay_spread_s,los_blocked,tx_power_w\n"
                      + "\n".join(",".join(str(c) for c in row) for row in rows) + "\n")

    @classmethod
    def read_csv(cls, path: str) -> "GainTable":
        meta: dict[str, str] = {}
        data_lines = []
        with open(path, "r", newline="") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    meta[key.strip()] = val
                elif line:
                    data_lines.append(line)
        reader = csv.DictReader(data_lines)
        cells = {}
        n_users = n_branches = n_aps = 0
        tx: dict[tuple[int, int], float] = {}
        for rec in reader:
            u, b, a = int(rec["user"]), int(rec["branch"]) - 1, int(rec["ap"]) - 1
            k = Wavelength(rec["wavelength"]).index
            cells[(u, b, a, k)] = rec
            tx[(a, k)] = float(rec["tx_power_w"])
            n_users, n_branches, n_aps = max(n_users, u + 1), max(n_branches, b + 1), max(n_aps, a + 1)
        shape = (n_users, n_branches, n_aps, len(WAVELENGTHS))
        if len(cells) != n_users * n_branches * n_aps * len(WAVELENGTHS):
            raise ValueError(f"gain table at {path} is incomplete: "
                             f"{len(cells)} cells for shape {shape}")
        dc = np.zeros(shape)
        bw = np.zeros(shape)
        capped = np.zeros(shape, dtype=bool)
        ds = np.zeros(shape)
        blocked = np.zeros(shape, dtype=bool)
        for (u, b, a, k), rec in cells.items():
            dc[u, b, a, k] = float(rec["dc_gain"])
            bw[u, b, a, k] = float(rec["bandwidth_hz"])
            capped[u, b, a, k] = bool(int(rec["bandwidth_capped"]))
            ds[u, b, a, k] = float(rec["delay_spread_s"])
            blocked[u, b, a, k] = bool(int(rec["los_blocked"]))
        txp = np.zeros((n_aps, len(WAVELENGTHS)))
        for (a, k), p in tx.items():
            txp[a, k] = p
        users = []
        if meta.get("users"):
            for part in meta["users"].split(";"):
                users.append(Vec3.from_iterable(float(v) for v in part.split(",")))
        else:
            users = [Vec3(0.0, 0.0, 0.0)] * n_users
        return cls(users, n_branches, n_aps, dc, bw, capped, ds, blocked, txp,
                   scene_fingerprint=meta.get("fingerprint", ""),
                   max_order=int(meta.get("max_order", "2")))


def gain_matrix(
    scene: Scene,
    users: Sequence[Vec3],
    max_order: int = 2,
    branches: Sequence[BranchSpec] | None = None,
    dt: float = DEFAULT_DT_S,
    f_cap: float = DEFAULT_F_CAP_HZ,
    dispersion_factor: float = DEFAULT_DISPERSION_FACTOR,
    workers: int = 1,
) -> GainTable:
    """Complete channel table for all users, branches, APs and wavelengths.

    Results are identical regardless of worker count: each (user, branch, AP)
    cell is computed independently with a fixed accumulation order.
    """
    if max_order not in (0, 1, 2):
        raise ValueError(f"max_order must be 0, 1 or 2, got {max_order}")
    branches = tuple(branches) if branches is not None else default_branches()
    for i, p in enumerate(users):
        if not scene.room.contains(p):
            raise ValueError(f"user {i} outside room: ({p.x}, {p.y}, {p.z})")

    n_u, n_b, n_a = len(users), len(branches), len(scene.room.aps)
    shape = (n_u, n_b, n_a, len(WAVELENGTHS))
    dc = np.zeros(shape)
    bw = np.zeros(shape)
    capped = np.zeros(shape, dtype=bool)
    ds = np.zeros(shape)
    blocked = np.zeros(shape, dtype=bool)

    orders = range(1, max_order + 1)
    illum = [{o: _ap_illumination(scene, ap, o) for o in orders} for ap in scene.room.aps]
    transfer = _transfer_matrix(scene) if max_order == 2 else None

    def fill_user(u: int) -> None:
        rx = users[u].as_array()
        for b in range(n_b):
            capture = {o: _receiver_capture(scene, rx, branches[b], o) for o in orders}
            for a in range(n_a):
                bins, g0 = _accumulate(scene, scene.room.aps[a], rx, branches[b], dt, illum[a], capture, transfer)
                for wl in WAVELENGTHS:
                    k = wl.index
                    m = metrics_from_response(_trim(bins[k], dt), f_cap=f_cap,
                                              los_blocked=(g0 == 0.0),
                                              dispersion_factor=dispersion_factor)
                    dc[u, b, a, k] = m.dc_gain
                    bw[u, b, a, k] = m.bandwidth_hz
                    capped[u, b, a, k] = m.bandwidth_capped
                    ds[u, b, a, k] = m.rms_delay_spread_s
                    blocked[u, b, a, k] = m.los_blocked

    if workers <= 1:
        for u in range(n_u):
            fill_user(u)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_user, range(n_u)))

    tx = np.array([[ap.power_w(wl) for wl in WAVELENGTHS] for ap in scene.room.aps])
    return GainTable(list(users), n_b, n_a, dc, bw, capped, ds, blocked, tx,
                     scene_fingerprint=scene.fingerprint, max_order=max_order)


def write_impulse_response_csv(ir: ImpulseResponse, path: str) -> None:
    lines = ["time_s,gain_per_bin"]
    for t, g in zip(ir.times, ir.bins):
        lines.append(f"{float(t)!r},{float(g)!r}")
    atomic_write(path, "\n".join(lines) + "\n")
