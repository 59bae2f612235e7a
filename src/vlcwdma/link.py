"""Link budgets: photocurrents, noise, WDMA SINR and supported data rate.

Received light at a branch splits three ways (per the WDMA taxonomy):

  signal        the user's own (AP, wavelength) on its assigned branch
  interference  co-wavelength modulated light from APs serving other users
  background    everything else -- unmodulated (AP, wavelength) pairs kept
                on for illumination, plus other-wavelength modulated light
                rejected by the ideal demultiplexer

Background never enters the interference sum; it only adds shot noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .channel import GainTable
from .scene import WAVELENGTHS, ConfigError, Wavelength, wavelength_map

ELECTRON_CHARGE_C = 1.602e-19

# OOK operating point: SINR of Q^2 = 36 (~15.6 dB) gives BER 1e-9. Links
# below it run forward error correction, modeled as a pure code-rate
# penalty; below the floor the link is unsupported.
FEC_THRESHOLD_DB = 15.6
FEC_RATE_PENALTY = 0.874
FEC_FLOOR_DB = 6.0
OOK_BANDWIDTH_RATIO = 0.7


class UnsupportedLinkError(ValueError):
    """Raised when a link's SINR is below the FEC floor."""


@dataclass(frozen=True)
class ReceiverFrontEnd:
    """Photodetector responsivities and preamplifier noise model."""

    responsivity_a_w: Mapping[Wavelength, float] = field(default_factory=lambda: {"R": 0.4, "Y": 0.35, "G": 0.3, "B": 0.2})
    noise_density_a_rthz: float = 4.47e-12
    bandwidth_hz: float = 5e9
    crosstalk: float = 0.0  # other-wavelength leakage into the interference sum

    def __post_init__(self) -> None:
        object.__setattr__(self, "responsivity_a_w", wavelength_map(self.responsivity_a_w, "responsivity"))
        errors = [f"responsivity for {wl.value} must be > 0 and finite, got {r}"
                  for wl, r in self.responsivity_a_w.items() if not 0.0 < r < math.inf]  # NaN fails too
        if not 0.0 < self.noise_density_a_rthz < math.inf:
            errors.append("noise current spectral density must be > 0 and finite")
        if not 0.0 < self.bandwidth_hz < math.inf:
            errors.append("receiver bandwidth must be > 0 and finite")
        if not 0.0 <= self.crosstalk < 1.0:
            errors.append("crosstalk factor must be in [0, 1)")
        if errors:
            raise ConfigError(errors)

    def responsivity(self, wl: Wavelength) -> float:
        return self.responsivity_a_w[wl]


DEFAULT_FRONT_END = ReceiverFrontEnd()


@dataclass(frozen=True)
class LinkBudget:
    signal_a: float
    interference_a: tuple[float, ...]
    background_a: tuple[float, ...]
    noise_var_a2: float
    sinr_db: float


@dataclass(frozen=True)
class LinkReport:
    user: int
    ap: int
    branch: int
    wavelength: Wavelength
    sinr_db: float
    bandwidth_hz: float
    rate_bps: float
    fec_engaged: bool


def photocurrent(
    gain: float, p_tx_w: float, wavelength: Wavelength,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
) -> float:
    """I = R(wl) * P_tx * gain."""
    if gain < 0.0 or p_tx_w < 0.0:
        raise ValueError("gain and transmit power must be >= 0")
    return front_end.responsivity(wavelength) * p_tx_w * gain


def noise_variance(
    total_current_a: float | np.ndarray, bandwidth_hz: float,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
) -> float | np.ndarray:
    """Shot plus preamplifier noise: 2*q*I*B + N0^2*B (elementwise on arrays)."""
    if np.any(total_current_a < 0.0):
        raise ValueError("total current must be >= 0")
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be > 0")
    shot = 2.0 * ELECTRON_CHARGE_C * total_current_a * bandwidth_hz
    preamp = front_end.noise_density_a_rthz**2 * bandwidth_hz
    return shot + preamp


class SinrModel:
    """Photocurrents and noise floors of one gain table seen through one
    front end: the single SINR implementation behind search and reports.

    Entries passed to ``sinr_linear`` are anything with ``ap``, ``branch``
    and ``wavelength`` attributes. ``entries`` is the whole assignment and
    may include ``own``, which is skipped by identity.
    """

    def __init__(self, table: GainTable, front_end: ReceiverFrontEnd = DEFAULT_FRONT_END):
        self.table = table
        resp = np.array([front_end.responsivity(wl) for wl in WAVELENGTHS])
        # currents[u, b, a, k]: photocurrent of pair (a, k) seen on branch b
        self.currents = table.dc * table.tx_power_w[None, None, :, :] * resp[None, None, None, :]
        # every pair radiates regardless of assignment, so the noise floor
        # depends on the (user, branch) only
        self.sigma2 = noise_variance(self.currents.sum(axis=(2, 3)), front_end.bandwidth_hz, front_end)
        self.crosstalk = front_end.crosstalk

    def sinr_linear(self, user: int, own, entries: Iterable) -> float:
        """i_sig^2 / (noise + co-channel^2 + leaked other-wavelength^2); 0 without signal."""
        b = own.branch
        i_sig = self.currents[user, b, own.ap, own.wavelength.index]
        if i_sig <= 0.0:
            return 0.0
        denom = self.sigma2[user, b]
        for other in entries:
            if other is own:
                continue
            if other.wavelength == own.wavelength:
                denom += self.currents[user, b, other.ap, other.wavelength.index] ** 2
            elif self.crosstalk > 0.0:
                # modulated other-wavelength light leaking past the demultiplexer
                leak = self.crosstalk * self.currents[user, b, other.ap, other.wavelength.index]
                denom += leak * leak
        return float(i_sig * i_sig / denom)

    def link_budget(self, user: int, assignment: Mapping[int, object]) -> LinkBudget:
        """Full current/noise/SINR breakdown for one user under an assignment."""
        own = assignment[user]
        _, interference, background = classify_light(user, assignment, self.table)
        seen = self.currents[user, own.branch].tolist()  # [ap][wavelength index]
        lin = self.sinr_linear(user, own, assignment.values())
        return LinkBudget(
            signal_a=seen[own.ap][own.wavelength.index],
            interference_a=tuple(seen[a][wl.index] for a, wl in interference),
            background_a=tuple(seen[a][wl.index] for a, wl in background),
            noise_var_a2=float(self.sigma2[user, own.branch]),
            sinr_db=10.0 * math.log10(lin) if lin > 0.0 else float("-inf"),
        )

    def link_report(self, user: int, assignment: Mapping[int, object]) -> LinkReport:
        """Evaluate one user's assigned link end to end."""
        own = assignment[user]
        budget = self.link_budget(user, assignment)
        if budget.signal_a <= 0.0:
            raise ValueError(f"user {user} has zero signal gain on its assignment")
        metrics = self.table.metrics(user, own.branch, own.ap, own.wavelength)
        rate, fec = data_rate(metrics.bandwidth_hz, budget.sinr_db)
        return LinkReport(
            user=user, ap=own.ap, branch=own.branch, wavelength=own.wavelength,
            sinr_db=budget.sinr_db, bandwidth_hz=metrics.bandwidth_hz,
            rate_bps=rate, fec_engaged=fec,
        )


def classify_light(user: int, assignment: Mapping[int, object], table: GainTable):
    """Partition every (AP, wavelength) pair into signal / interference / background.

    ``assignment`` maps each user to an entry with ``ap``, ``branch`` and
    ``wavelength`` attributes (0-based indices). Every pair not assigned to
    any user stays on as unmodulated illumination and is background, as is
    other-wavelength modulated light.
    """
    if user not in assignment:
        raise KeyError(f"user {user} missing from assignment")
    own = assignment[user]
    signal = (own.ap, own.wavelength)
    modulated = {(entry.ap, entry.wavelength) for v, entry in assignment.items() if v != user}
    interference = []
    background = []
    for a in range(table.n_aps):
        for wl in WAVELENGTHS:
            pair = (a, wl)
            if pair == signal:
                continue
            if wl == own.wavelength and pair in modulated:
                interference.append(pair)
            else:
                background.append(pair)
    return signal, interference, background


def link_budget(
    user: int, assignment: Mapping[int, object], table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
) -> LinkBudget:
    """Full current/noise/SINR breakdown for one user under an assignment."""
    return SinrModel(table, front_end).link_budget(user, assignment)


def sinr(
    user: int, assignment: Mapping[int, object], table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
) -> float:
    """Electrical SINR in dB; -inf when the signal gain is zero."""
    return link_budget(user, assignment, table, front_end).sinr_db


def data_rate(
    b3db_hz: float, sinr_db: float,
    fec_threshold_db: float = FEC_THRESHOLD_DB,
    fec_floor_db: float = FEC_FLOOR_DB,
    fec_rate_penalty: float = FEC_RATE_PENALTY,
) -> tuple[float, bool]:
    """OOK rate supported by the channel bandwidth, with the FEC rule applied."""
    if b3db_hz <= 0.0:
        raise ValueError("channel bandwidth must be > 0")
    raw = b3db_hz / OOK_BANDWIDTH_RATIO
    if sinr_db >= fec_threshold_db:
        return raw, False
    if sinr_db >= fec_floor_db:
        return raw * fec_rate_penalty, True
    raise UnsupportedLinkError(
        f"SINR {sinr_db:.2f} dB below the {fec_floor_db} dB FEC floor"
    )


def link_report(
    user: int, assignment: Mapping[int, object], table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
) -> LinkReport:
    """Evaluate one user's assigned link end to end."""
    return SinrModel(table, front_end).link_report(user, assignment)


def reports_csv_lines(
    reports: Iterable[LinkReport], room: str = "", scenario: str = ""
) -> list[str]:
    """Rows for the per-user report file (1-based AP and branch ids)."""
    lines = ["user,room,scenario,ap,branch,wavelength,sinr_db,bandwidth_hz,rate_bps,fec"]
    for r in reports:
        lines.append(
            f"{r.user + 1},{room},{scenario},{r.ap + 1},{r.branch + 1},{r.wavelength.value},"
            f"{r.sinr_db:.4f},{r.bandwidth_hz:.0f},{r.rate_bps:.0f},{int(r.fec_engaged)}"
        )
    return lines
