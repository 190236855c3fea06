"""The run record shared by the linear and nonlinear integrators, and its recorder.

A Trajectory stores scalar diagnostics densely (one value per step
boundary, plus one value per step interval for the quantities that feed
the energy audits) and spectral snapshots at a caller-chosen stride.
The audits and decay fits (zkbs.functionals) read the dense scalar
series alone, so memory does not grow with snapshot resolution.

Midpoint-interval series (mid_*) hold the audit integrands evaluated on
the averaged state (u_n + u_{n+1}) / 2, which is how the midpoint time
rule is realized on a trajectory that is only known at step boundaries.

Both integrators (duhamel_solve and simulate) fill their Trajectory,
work series included, through the one private _Recorder below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .domain import DomainConfig, _pad_band, mode_multipliers

__all__ = ["Trajectory"]


@dataclass(eq=False)
class Trajectory:
    domain: DomainConfig
    times: np.ndarray                 # (n+1,) step boundaries, strictly increasing
    l2: np.ndarray                    # (n+1,) L2 norm
    h1: np.ndarray                    # (n+1,) full H1 norm
    h2: np.ndarray                    # (n+1,) full H2 norm
    h_half: np.ndarray                # (n+1,) H^(1/2) norm
    h3_half: np.ndarray               # (n+1,) H^(3/2) norm
    diss_l2: np.ndarray               # (n+1,) integral u_x^2 + u_y^2
    diss_h1: np.ndarray               # (n+1,) integral u_xx^2 + 2 u_xy^2 + u_yy^2
    e2_mixed: np.ndarray              # (n+1,) integral u_xx^2 + u_xy^2 + u_yy^2
    nonlin_flux: np.ndarray           # (n+1,) work <u, F> of the run's own F (N(u) or forcing)
    mid_diss0: np.ndarray             # (n,) integral |Du|^2 at averaged states
    mid_diss1: np.ndarray             # (n,) integral u_xx^2 + 2 u_xy^2 + u_yy^2, averaged states
    mid_diss2: np.ndarray             # (n,) third-order dissipation integral, averaged states
    snapshot_indices: np.ndarray      # indices into times
    snapshots: list                   # spectral coefficient arrays, complex (nx/2 + 1, ny)
    cube: np.ndarray | None = None            # (n+1,) integral u^3 (audit runs, h = None)
    mid_rhs_h1: np.ndarray | None = None      # (n,) 2 <d1 u, F>, averaged states, midpoint F
    mid_rhs_h2: np.ndarray | None = None      # (n,) 2 <e2 u, F>, likewise
    mid_u2lap: np.ndarray | None = None       # (n,) integral u^2 (u_xx + u_yy) (as cube)
    blowup_time: float | None = None
    h: float | None = None            # the flux's cutoff scale; None for u^2/2 and linear runs

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def lyapunov_h1(self) -> np.ndarray:
        """integral |Du|^2 + u^2 at step boundaries."""
        return self.diss_l2 + self.l2**2


# Sobolev order s -> the column of ||u||_{H^s} that every run records at every boundary
_NORM_COLUMNS = {0.0: "l2", 0.5: "h_half", 1.0: "h1", 1.5: "h3_half", 2.0: "h2"}

# the most float64 series a run records: an audit-mode simulate() run at h = None
# keeps 11 per boundary (times included) and 6 per step, a duhamel_solve() run 10 and 5
_MAX_SERIES = 17


def _resolve_steps(T: float, dt: float) -> int:
    """Number of steps of size dt in [0, T]; dt must divide T."""
    if not (dt > 0 and isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if not (T > 0 and isfinite(T)):
        raise ValueError("final time must be positive and finite")
    if not T / dt < 2**53:
        raise ValueError("final time / dt must be below 2**53 steps")
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("dt must divide the final time")
    need = _MAX_SERIES * 8 * (n + 1)
    if need > _memory_bytes():
        raise ValueError(f"{n} steps cannot be recorded: their series need "
                         f"{need / 2**30:.3g} GiB, more than the machine's memory")
    return n


def _memory_bytes() -> float:
    """Physical memory of the machine, or inf where the OS does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return inf


class _Recorder:
    """Fills one Trajectory, a stack of boundaries or of steps at a time.

    It owns the step count, the eight boundary norm and energy columns,
    the mid_diss series, the snapshot stride (an integer >= 0; 0 keeps the
    first and last boundary only) and the truncation of a run that blew
    up: trajectory() keeps the first `rows` boundaries and rows - 1 steps.
    Callers name their own series at construction and write them into
    cols and mid; nonlin_flux always exists and stays zero unless written.
    Built-in series sum |c|^2 against mode_multipliers weights times the
    Parseval row weight, sliced once to the recorded state's leading
    `shape` block (simulate records its kept band); snapshots are padded
    to the full half spectrum.

    It owns every pairing <a, b> of a state with a right-hand side F:
    work() writes <u, F> into nonlin_flux and interval() 2 <d1 u, F> and
    2 <e2 u, F> into mid_rhs_h1 and mid_rhs_h2, summing Re(conj(u) F).

    boundary(), work() and interval() take a (k, rows, cols) stack of
    consecutive states, k <= `block`, or a single (rows, cols) state,
    which is a stack of one: there is one recording path.  Each state's
    sums are one gemv (one dot for a single weight row) per weight
    product, so a stack records the bits its states would one at a time,
    into buffers allocated once per run.
    """

    def __init__(self, d: DomainConfig, T: float, dt: float, snapshot_stride: int,
                 boundary_series: tuple = (), interval_series: tuple = (),
                 shape: tuple[int, int] | None = None, block: int = 1):
        if not isinstance(snapshot_stride, (int, np.integer)) or snapshot_stride < 0:
            raise ValueError(f"snapshot_stride must be an integer >= 0, got {snapshot_stride!r}")
        n = _resolve_steps(T, dt)
        self.domain, self.n_steps, self.stride = d, n, snapshot_stride
        self.times = dt * np.arange(n + 1)
        m = mode_multipliers(d)
        rows, cols = shape or d.spectral_shape
        W = d.parseval_weight[:rows, None]
        def stack(*ws):  # a (series, modes) matrix, so that each record makes one contraction
            return np.stack([W * w[:rows, :cols] for w in ws]).reshape(len(ws), -1)
        self.stacked = stack(m.hs(0), m.hs(1), m.hs(2), m.d1, m.d2, m.e2)
        # the half orders take a product of their own: as rows 7 and 8 of the one
        # above they would change how it is blocked, and the last bits of its rows
        self.half_stacked = stack(m.hs(0.5), m.hs(1.5))
        self.mid_stacked = stack(m.d1, m.d2, m.d3)
        self.work_stacked = stack(m.d1, m.e2)  # interval work 2 <d1 u, F> and 2 <e2 u, F>
        self.mid_weights = dict(zip(("mid_diss0", "mid_diss1", "mid_diss2"), self.mid_stacked))
        # the weight rows' columns are the rows of one matrix, so that a stack's sums
        # land in one copy; the half orders' product fills rows 0-1 and the other rows
        # 2-7, so that the five norm columns, which store square roots, are rows 0-4
        order = ("h_half", "h3_half", "l2", "h1", "h2", "diss_l2", "diss_h1", "e2_mixed")
        self._series = np.zeros((len(order), n + 1))
        self._mid_series = np.zeros((len(self.mid_weights), n))
        self.cols = {**dict(zip(order, self._series)),
                     **{name: np.zeros(n + 1) for name in ("nonlin_flux", *boundary_series)}}
        self.mid = {**dict(zip(self.mid_weights, self._mid_series)),
                    **{name: np.zeros(n) for name in interval_series}}
        self.snapshot_indices, self.snapshots = [], []
        self._re2, self._im2 = np.empty((2, block, rows, cols))  # squares of the recorded states
        self._pairs = np.empty((block, rows, cols), dtype=complex)  # conj(u) F of paired states
        self._sums = np.empty((block, len(order), 1))  # each state's sums, one matrix row each
        self._mid_sums = np.empty((block, len(self.mid_weights), 1))
        self._cuts: dict[int, tuple] = {}

    def _cut(self, k: int) -> tuple:
        """The buffers' views for a stack of k states, made once per k.

        They are the two squares buffers and their sum as one (modes, 1)
        column per state; the boundary sums' two product parts, norm rows
        and transpose; and the interval sums and their transpose.
        """
        if k not in self._cuts:
            re2, sums, mid = self._re2[:k], self._sums[:k], self._mid_sums[:k]
            half = len(self.half_stacked)
            self._cuts[k] = (re2, self._im2[:k], re2.reshape(k, -1, 1),
                             sums[:, :half], sums[:, half:], sums[:, : len(_NORM_COLUMNS)],
                             sums[:, :, 0].T, mid, mid[:, :, 0].T)
        return self._cuts[k]

    @staticmethod
    def _sum_squares(stack: np.ndarray, re2: np.ndarray, im2: np.ndarray) -> None:
        """re^2 + im^2 of a stack of states, into re2 (no temporaries)."""
        np.square(stack.real, out=re2)
        np.square(stack.imag, out=im2)
        np.add(re2, im2, out=re2)

    def boundary(self, i: int, coeffs: np.ndarray) -> None:
        """Record boundaries i, i + 1, ... from a stack of states (or one state)."""
        stack = coeffs[None] if coeffs.ndim == 2 else coeffs
        k = len(stack)
        re2, im2, squares, halves, wholes, norms, sums_t, _, _ = self._cut(k)
        self._sum_squares(stack, re2, im2)
        np.matmul(self.half_stacked, squares, out=halves)
        np.matmul(self.stacked, squares, out=wholes)
        np.sqrt(norms, out=norms)
        self._series[:, i : i + k] = sums_t
        for j in range(i, i + k):
            if (self.stride > 0 and j % self.stride == 0) or j in (0, self.n_steps):
                self.snapshot_indices.append(j)
                self.snapshots.append(_pad_band(stack[j - i], self.domain))

    def _pair(self, weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """weights (a row, or r rows) times Re(conj(a) b) per state: (k, 1) or (k, r, 1)."""
        a, b = (x[None] if x.ndim == 2 else x for x in (a, b))
        k = len(a)
        pairs, reals = self._pairs[:k], self._re2[:k]
        np.conjugate(a, out=pairs)
        np.multiply(pairs, b, out=pairs)
        np.copyto(reals, pairs.real)
        return np.matmul(weights, reals.reshape(k, -1, 1))

    def pairing(self, a: np.ndarray, b: np.ndarray) -> float:
        """integral a b of two real fields from their recorded blocks."""
        return float(self._pair(self.stacked[0], a, b)[0, 0])

    def work(self, i: int, coeffs: np.ndarray, rhs: np.ndarray) -> None:
        """nonlin_flux = <u, F> at boundaries i, i + 1, ... from a stack of states and their F."""
        pairs = self._pair(self.stacked[0], coeffs, rhs)
        self.cols["nonlin_flux"][i : i + len(pairs)] = pairs[:, 0]

    def interval(self, i: int, uavg: np.ndarray, rhs: np.ndarray | None = None) -> None:
        """Record steps i, i + 1, ... from a stack of averaged states (or one state).

        rhs is None or the stack of right-hand sides F at the steps'
        midpoints, whose work goes to mid_rhs_h1 and mid_rhs_h2.
        """
        stack = uavg[None] if uavg.ndim == 2 else uavg
        k = len(stack)
        re2, im2, squares, _, _, _, _, mid, mid_t = self._cut(k)
        self._sum_squares(stack, re2, im2)
        np.matmul(self.mid_stacked, squares, out=mid)
        self._mid_series[:, i : i + k] = mid_t
        if rhs is not None:
            work = 2.0 * self._pair(self.work_stacked, stack, rhs)[:, :, 0].T
            self.mid["mid_rhs_h1"][i : i + k], self.mid["mid_rhs_h2"][i : i + k] = work

    def trajectory(self, rows: int, blowup_time: float | None = None,
                   h: float | None = None) -> Trajectory:
        indices = np.array(self.snapshot_indices, dtype=int)
        kept = int(np.sum(indices < rows))  # boundaries arrive in order
        return Trajectory(
            domain=self.domain, times=self.times[:rows],
            snapshot_indices=indices[:kept], snapshots=self.snapshots[:kept],
            blowup_time=blowup_time, h=h,
            **{name: col[:rows] for name, col in self.cols.items()},
            **{name: col[: max(rows - 1, 0)] for name, col in self.mid.items()},
        )
