"""Link budgets: photocurrents, noise, WDMA SINR and supported data rate.

Received light at a branch splits three ways (per the WDMA taxonomy):

  signal        the user's own (AP, wavelength) on its assigned branch
  interference  co-wavelength modulated light from APs serving other users
  background    everything else -- unmodulated (AP, wavelength) pairs kept
                on for illumination, plus other-wavelength modulated light
                rejected by the demultiplexer

Every pair radiates whether modulated or not, so all of this light sets the
shot noise in a branch's noise floor. An interferer of current ``i`` adds
``i ** 2`` to the SINR denominator. Under crosstalk ``x`` a fraction ``x`` of
other-wavelength modulated light leaks past the demultiplexer and adds
``(x * i) ** 2``. ``SinrModel`` tabulates these terms, and every SINR is
``i_sig ** 2 / (noise floor + the terms of the other assigned pairs)``.
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
_N_WL = len(WAVELENGTHS)


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
class LinkReport:
    user: int
    ap: int
    branch: int
    wavelength: Wavelength
    sinr_db: float
    bandwidth_hz: float
    rate_bps: float
    fec_engaged: bool


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
        currents = table.dc * table.tx_power_w[None, None, :, :] * resp[None, None, None, :]
        # every pair radiates regardless of assignment, so the noise floor
        # depends on the (user, branch) only
        self.sigma2 = noise_variance(currents.sum(axis=(2, 3)), front_end.bandwidth_hz, front_end).tolist()
        self.currents = currents.tolist()  # [u][b][a][k]: photocurrent of pair (a, k) on branch b
        # terms[u][b][k][a * len(WAVELENGTHS) + k2]: what the modulated pair (a, k2) adds to
        # user u's SINR denominator on branch b at wavelength k: i ** 2 if k2 == k (C pow;
        # i * i and np.square differ in the last bit), else the leaked (x*i)^2
        x = front_end.crosstalk
        leaks = ((x * currents) * (x * currents)).astype(object) if x > 0.0 else np.full(currents.shape, 0.0, object)
        terms = np.repeat(leaks[:, :, None], _N_WL, axis=2)  # [u, b, k, a, k2]; the rows share floats
        squares = np.reshape(np.array([i ** 2 for i in currents.ravel().tolist()], object), currents.shape)
        for k in range(_N_WL):
            terms[:, :, k, :, k] = squares[..., k]
        self.terms = terms.reshape(*terms.shape[:3], -1).tolist()

    def sinr_linear(self, user: int, own, entries: Iterable) -> float:
        """i_sig^2 / (noise floor + each other entry's term, in entry order); 0 without signal."""
        i_sig = self.currents[user][own.branch][own.ap][own.wavelength.index]
        if i_sig <= 0.0:
            return 0.0
        row = self.terms[user][own.branch][own.wavelength.index]
        denom = self.sigma2[user][own.branch]
        for other in entries:
            if other is not own:
                denom += row[other.ap * _N_WL + other.wavelength.index]
        return i_sig * i_sig / denom

    def link_report(self, user: int, assignment: Mapping[int, object]) -> LinkReport:
        """Evaluate one user's assigned link end to end."""
        own = assignment[user]
        if self.currents[user][own.branch][own.ap][own.wavelength.index] <= 0.0:
            raise ValueError(f"user {user} has zero signal gain on its assignment")
        lin = self.sinr_linear(user, own, assignment.values())
        sinr_db = 10.0 * math.log10(lin) if lin > 0.0 else float("-inf")
        metrics = self.table.metrics(user, own.branch, own.ap, own.wavelength)
        rate, fec = data_rate(metrics.bandwidth_hz, sinr_db)
        return LinkReport(
            user=user, ap=own.ap, branch=own.branch, wavelength=own.wavelength,
            sinr_db=sinr_db, bandwidth_hz=metrics.bandwidth_hz,
            rate_bps=rate, fec_engaged=fec,
        )


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
    """One report through a model built for this call; ``SinrModel`` serves many."""
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
