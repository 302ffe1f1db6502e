"""Revised simplex with bounded variables, LU bases and warm starts.

The dense tableau (:mod:`repro.lp.simplex`) pays ``O(rows · cols)`` per
pivot and re-derives every basis from an all-artificial start.  The
balance and refinement LPs of the IGP/IGPR pipeline are *repeated similar*
problems — successive stages share most of their variables (``l_ij``
pairs keyed by partition adjacency) and all of their rows (one per
partition) — which is exactly the setting where a revised method with
basis reuse wins:

* the basis inverse is maintained explicitly (product-form eta updates on
  top of an LU factorization from :func:`scipy.linalg.lu_factor`,
  refactorized every :attr:`RevisedSimplexSolver.refactor_every` pivots
  for numerical hygiene), so one pivot costs ``O(m²)`` plus one pricing
  matvec over the real columns instead of a full tableau sweep;
* upper bounds are handled natively (``0 ≤ x ≤ u`` with nonbasic-at-bound
  states and bound-flip steps), so the constraint matrix has one row per
  partition rather than one per finite bound — the balance LP drops from
  ``P + v`` tableau rows to ``P``;
* :meth:`RevisedSimplexSolver.solve` accepts an optional starting
  :class:`Basis`.  A basis is a *name-keyed* snapshot (variable names plus
  synthetic slack/artificial row names), so it survives the variable set
  changing between stages: names that vanished are dropped, missing rows
  are re-covered by their slack or artificial, and if the reconstructed
  basis is still primal feasible **Phase 1 is skipped entirely**.

Pivoting is Dantzig (most-violating reduced cost, lowest index on ties)
degrading to Bland's rule after a run of degenerate pivots, mirroring the
dense solver so both terminate on the same problem class.  On the totally
unimodular transportation LPs of the paper every basic solution — warm or
cold — is integral, which the property tests assert.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus

try:  # scipy is the preferred factorization engine but not a hard dep
    from scipy.linalg import lu_factor, lu_solve

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - image always ships scipy
    _HAVE_SCIPY = False

__all__ = [
    "Basis",
    "BasisCarrier",
    "RevisedSimplexSolver",
    "RevisedStats",
    "solve_lp_revised",
]

_AT_LOWER, _AT_UPPER, _BASIC = np.int8(0), np.int8(1), np.int8(2)


@dataclass(frozen=True)
class Basis:
    """Solver-independent snapshot of a simplex basis, keyed by name.

    ``statuses`` holds ``(name, state)`` pairs where ``state`` is
    ``"basic"`` or ``"upper"`` (nonbasic-at-lower is the default and is
    omitted).  Structural variables use their ``LinearProgram``
    ``variable_names``; slack and artificial slots use the synthetic row
    names ``__s{i}`` / ``__a{i}``.  Because rows of the pipeline's LPs are
    identified by partition index, and structural names by partition
    pairs, a basis taken from one stage maps meaningfully onto the next
    stage's LP even when the pair set changed.
    """

    statuses: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        """``{name: state}`` view."""
        return dict(self.statuses)

    @property
    def num_basic(self) -> int:
        """Number of basic slots recorded."""
        return sum(1 for _, s in self.statuses if s == "basic")

    # ------------------------------------------------------------------
    # Serialization (durable session snapshots)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """``{"names": ..., "states": ...}`` unicode arrays, savez-ready.

        The two arrays are aligned; order is preserved so a reloaded
        basis maps onto the next LP exactly like the original would.
        """
        return {
            "names": np.array([n for n, _ in self.statuses], dtype=np.str_),
            "states": np.array([s for _, s in self.statuses], dtype=np.str_),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "Basis":
        """Rebuild a basis from a :meth:`to_arrays` dict."""
        names, states = arrays["names"], arrays["states"]
        if len(names) != len(states):
            raise ValidationError(
                "basis names/states arrays are not aligned"
            )
        return cls(
            statuses=tuple(
                (str(n), str(s)) for n, s in zip(names, states)
            )
        )


class BasisCarrier:
    """Mutable holder threading warm-start bases across successive solves.

    The serial partitioner keeps one carrier for its balance stages and
    one for refinement rounds; each SPMD rank of the parallel driver keeps
    its own (deterministically identical) pair.  ``update_from`` only
    stores a basis from *optimal* results, so a failed/infeasible solve
    never poisons the next warm start.
    """

    def __init__(self, basis: Basis | None = None):
        self.basis = basis

    def update_from(self, result: LPResult) -> None:
        """Capture the final basis of an optimal solve, if any."""
        if result.is_optimal:
            basis = result.extra.get("basis")
            if basis is not None:
                self.basis = basis

    def reset(self) -> None:
        """Drop the carried basis (next solve is cold)."""
        self.basis = None


@dataclass
class RevisedStats:
    """Instrumentation of one revised-simplex solve."""

    phase1_iterations: int = 0
    phase2_iterations: int = 0
    bound_flips: int = 0
    refactorizations: int = 0
    degenerate_pivots: int = 0
    warm_start_used: bool = False
    rows: int = 0
    cols: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """Pivots plus bound flips across both phases."""
        return self.phase1_iterations + self.phase2_iterations


class RevisedSimplexSolver:
    """Bounded-variable revised simplex with warm-start basis reuse.

    Parameters
    ----------
    tol:
        optimality/pivot tolerance.
    max_iter:
        pivot budget; ``None`` picks ``200 + 20 * (rows + cols)``.
    refactor_every:
        pivots between LU refactorizations of the basis (drift control).
    bland_trigger:
        consecutive degenerate pivots before switching to Bland's rule.
    """

    def __init__(
        self,
        tol: float = 1e-9,
        max_iter: int | None = None,
        refactor_every: int = 64,
        bland_trigger: int = 40,
    ):
        if refactor_every < 1:
            raise ValidationError("refactor_every must be >= 1")
        self.tol = tol
        self.max_iter = max_iter
        self.refactor_every = refactor_every
        self.bland_trigger = bland_trigger

    # ------------------------------------------------------------------
    def solve(self, lp: LinearProgram, basis: Basis | None = None) -> LPResult:
        """Solve ``lp``; optionally warm-start from a carried ``basis``."""
        return self.solve_with_stats(lp, basis)[0]

    # ------------------------------------------------------------------
    def solve_with_stats(
        self, lp: LinearProgram, basis: Basis | None = None
    ) -> tuple[LPResult, RevisedStats]:
        """Solve and return pivot/refactorization instrumentation."""
        tol = self.tol
        n = lp.num_variables
        c0 = lp.c.astype(np.float64, copy=True)
        if lp.maximize:
            c0 = -c0

        ub_struct = (
            np.full(n, np.inf)
            if lp.upper_bounds is None
            else lp.upper_bounds.astype(np.float64, copy=True)
        )

        m_ub, m_eq = len(lp.b_ub), len(lp.b_eq)
        m = m_ub + m_eq
        stats = RevisedStats(rows=m, cols=n)

        if m == 0:
            # Pure box problem: each variable sits at whichever bound its
            # cost prefers; a negative cost with no finite upper bound is
            # unbounded.
            neg = c0 < -tol
            if np.any(neg & ~np.isfinite(ub_struct)):
                return (
                    LPResult(
                        LPStatus.UNBOUNDED,
                        message="no constraints",
                        extra={"stats": stats},
                    ),
                    stats,
                )
            x = np.where(neg, np.where(np.isfinite(ub_struct), ub_struct, 0.0), 0.0)
            obj = float(c0 @ x)
            return (
                LPResult(
                    LPStatus.OPTIMAL,
                    x=x,
                    objective=-obj if lp.maximize else obj,
                    extra={"basis": Basis(statuses=()), "warm_start": False,
                           "stats": stats},
                ),
                stats,
            )

        # ---------------- computational form ---------------------------
        # columns: [structural | slack per <= row | artificial per row]
        n_slack = m_ub
        art0 = n + n_slack
        n_total = art0 + m
        stats.cols = n_total
        A = np.zeros((m, n_total))
        if m_ub:
            A[:m_ub, :n] = lp.A_ub
            A[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
        if m_eq:
            A[m_ub:, :n] = lp.A_eq
        b = np.concatenate([lp.b_ub, lp.b_eq]).astype(np.float64)
        # Artificial of row i carries sign(b_i) so the cold-start
        # artificial value |b_i| is feasible without flipping rows.
        art_sign = np.where(b >= 0.0, 1.0, -1.0)
        A[np.arange(m), art0 + np.arange(m)] = art_sign

        # Every column's lower bound is 0 (LinearProgram has no other).
        upper = np.concatenate([ub_struct, np.full(n_slack + m, np.inf)])
        cost2 = np.concatenate([c0, np.zeros(n_slack + m)])

        names = (
            list(lp.variable_names)
            if lp.variable_names is not None
            else [f"x{j}" for j in range(n)]
        )
        names_all = (
            names
            + [f"__s{i}" for i in range(m_ub)]
            + [f"__a{i}" for i in range(m)]
        )
        name_to_col = {nm: j for j, nm in enumerate(names_all)}

        # Contiguous copies for the pivot loop: the priced real columns
        # (artificials never enter) and A's columns as rows for FTRAN.
        A_real = np.ascontiguousarray(A[:, :art0])
        A_cols = np.ascontiguousarray(A.T)

        status = np.full(n_total, _AT_LOWER, dtype=np.int8)
        basic = np.zeros(m, dtype=np.int64)
        max_iter = self.max_iter or (200 + 20 * (m + n_total))
        feas_tol = 1e-7 * max(1.0, float(np.abs(b).max()) if m else 1.0)

        Binv: np.ndarray | None = None
        xB: np.ndarray | None = None

        # ---------------- shared helpers --------------------------------
        def factorize(cols: np.ndarray) -> np.ndarray | None:
            B = A[:, cols]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    if _HAVE_SCIPY:
                        lu, piv = lu_factor(B, check_finite=False)
                        if not np.all(np.isfinite(lu)):
                            return None
                        inv = lu_solve((lu, piv), np.eye(m), check_finite=False)
                    else:  # pragma: no cover - scipy is always present
                        inv = np.linalg.inv(B)
                # repro: ignore[RPR501] - any breakdown means "basis unusable"
                except Exception:
                    return None
            if not np.all(np.isfinite(inv)) or np.abs(inv).max() > 1e12:
                return None
            return inv

        def nonbasic_upper_rhs() -> np.ndarray:
            up = np.flatnonzero(status == _AT_UPPER)
            if len(up) == 0:
                return b
            return b - A[:, up] @ upper[up]

        def refactorize() -> bool:
            nonlocal Binv, xB
            inv = factorize(basic)
            if inv is None:
                return False
            Binv = inv
            xB = Binv @ nonbasic_upper_rhs()
            stats.refactorizations += 1
            return True

        use_bland = False
        degen_streak = 0
        since_refactor = 0

        def run_phase(cost: np.ndarray, phase: int) -> LPStatus | None:
            """Pivot until optimal (None) or a failure status."""
            nonlocal Binv, xB, use_bland, degen_streak, since_refactor
            cost_real, st = cost[:art0], status[:art0]
            while True:
                if stats.total_iterations + 1 > max_iter:
                    return LPStatus.ITERATION_LIMIT
                # --- pricing: reduced costs of the real columns ---------
                # One matvec over every real column; basic columns are
                # then masked out (never eligible to enter).
                y = cost[basic] @ Binv
                d = cost_real - y @ A_real
                viol = np.where(st == _AT_LOWER, -d, d)
                viol[st == _BASIC] = -np.inf
                eligible = viol > tol
                if not eligible.any():
                    return None
                if use_bland:
                    j = int(np.flatnonzero(eligible)[0])
                else:
                    # argmax returns the first maximum -> lowest index tie-break
                    j = int(np.argmax(viol))
                s = 1.0 if status[j] == _AT_LOWER else -1.0

                # --- FTRAN + bounded ratio test -------------------------
                w = Binv @ A_cols[j]
                sw = s * w
                upper_b = upper[basic]
                dec = sw > tol  # basic value decreases toward 0
                inc = (sw < -tol) & np.isfinite(upper_b)
                steps = np.full(m, np.inf)
                np.divide(
                    np.where(dec, xB, upper_b - xB),
                    np.abs(sw),
                    out=steps,
                    where=dec | inc,
                )
                np.maximum(steps, 0.0, out=steps)
                t_row = float(steps.min()) if m else np.inf
                t_bound = upper[j]

                if not np.isfinite(t_row) and not np.isfinite(t_bound):
                    # Phase 1 is bounded below by zero, so an unbounded
                    # ray there signals numerical trouble.
                    return (
                        LPStatus.UNBOUNDED if phase == 2 else LPStatus.NUMERICAL
                    )

                if t_bound <= t_row:
                    # Bound flip: the entering variable crosses to its
                    # other bound without any basis change.
                    xB -= sw * t_bound
                    status[j] = _AT_UPPER if s > 0 else _AT_LOWER
                    stats.bound_flips += 1
                else:
                    ties = np.flatnonzero(steps <= t_row + tol)
                    r = int(ties[np.argmin(basic[ties])])
                    if t_row <= tol:
                        degen_streak += 1
                        stats.degenerate_pivots += 1
                        if degen_streak >= self.bland_trigger:
                            use_bland = True
                    else:
                        degen_streak = 0
                    if abs(w[r]) < 1e-11:
                        # Pivot too small for a stable eta update; try a
                        # fresh factorization before giving up.
                        if not refactorize():
                            return LPStatus.NUMERICAL
                        continue
                    xB -= sw * t_row
                    leaving = basic[r]
                    status[leaving] = _AT_LOWER if sw[r] > 0 else _AT_UPPER
                    status[j] = _BASIC
                    basic[r] = j
                    # Product-form eta update of the explicit inverse.
                    eta_row = Binv[r] / w[r]
                    Binv -= w[:, None] * eta_row
                    Binv[r] = eta_row
                    xB[r] = (0.0 if s > 0 else upper[j]) + s * t_row
                    since_refactor += 1
                    if since_refactor >= self.refactor_every:
                        since_refactor = 0
                        if not refactorize():
                            return LPStatus.NUMERICAL
                if phase == 1:
                    stats.phase1_iterations += 1
                else:
                    stats.phase2_iterations += 1

        # ---------------- warm start attempt ----------------------------
        warm = False
        if basis is not None:
            recon = self._reconstruct(
                basis, name_to_col, m, m_ub, n, art0, upper
            )
            if recon is not None:
                basic_cols, upper_cols = recon
                inv = factorize(basic_cols)
                if inv is not None:
                    status[:] = _AT_LOWER
                    status[upper_cols] = _AT_UPPER
                    status[basic_cols] = _BASIC
                    basic = basic_cols
                    upper[art0:] = 0.0  # artificials pinned for phase 2
                    Binv = inv
                    xB = Binv @ nonbasic_upper_rhs()
                    if np.all(xB >= -feas_tol) and np.all(
                        xB <= upper[basic] + feas_tol
                    ):
                        warm = True
                        stats.warm_start_used = True
                    else:
                        status[:] = _AT_LOWER  # fall back to a cold start
                        upper[art0:] = np.inf

        if not warm:
            # ---------------- phase 1 (cold crash basis) ----------------
            # Slack basic where feasible (b_i >= 0), artificial elsewhere.
            basic = np.array(
                [
                    n + i if i < m_ub and b[i] >= 0.0 else art0 + i
                    for i in range(m)
                ],
                dtype=np.int64,
            )
            status[:] = _AT_LOWER
            status[basic] = _BASIC
            if not refactorize():
                return (
                    LPResult(
                        LPStatus.NUMERICAL,
                        message="singular crash basis",
                        extra={"stats": stats},
                    ),
                    stats,
                )
            cost1 = np.zeros(n_total)
            cost1[art0:] = 1.0
            outcome = run_phase(cost1, phase=1)
            if outcome is not None:
                return (
                    LPResult(
                        outcome,
                        message="phase-1 failure",
                        extra={"stats": stats},
                    ),
                    stats,
                )
            art_rows = np.flatnonzero(basic >= art0)
            phase1_obj = float(xB[art_rows].sum()) if len(art_rows) else 0.0
            if phase1_obj > feas_tol:
                return (
                    LPResult(
                        LPStatus.INFEASIBLE,
                        message=f"phase-1 optimum {phase1_obj:.3e} > 0",
                        extra={"stats": stats},
                    ),
                    stats,
                )
            # Pin artificials at zero: basic ones stay at level 0 (the
            # ratio test can only remove them), nonbasic ones are fixed.
            upper[art0:] = 0.0
            if len(art_rows):
                xB[art_rows] = 0.0

        # ---------------- phase 2 ---------------------------------------
        outcome = run_phase(cost2, phase=2)
        if outcome is not None:
            msg = "objective unbounded" if outcome is LPStatus.UNBOUNDED else ""
            return LPResult(outcome, message=msg, extra={"stats": stats}), stats

        # One final refactorization pass wipes accumulated eta drift
        # before the solution is extracted.
        if since_refactor > 0 and not refactorize():
            return (
                LPResult(
                    LPStatus.NUMERICAL,
                    message="final refactorization",
                    extra={"stats": stats},
                ),
                stats,
            )

        x_full = np.zeros(n_total)
        up = np.flatnonzero(status == _AT_UPPER)
        x_full[up] = upper[up]
        x_full[basic] = np.clip(xB, 0.0, upper[basic])
        x = x_full[:n].copy()
        x[np.abs(x) < tol] = 0.0
        obj = float(c0 @ x)

        entries = [(names_all[int(col)], "basic") for col in basic]
        entries += [
            (names_all[int(col)], "upper") for col in up if col < n
        ]
        final_basis = Basis(statuses=tuple(sorted(entries)))
        return (
            LPResult(
                LPStatus.OPTIMAL,
                x=x,
                objective=-obj if lp.maximize else obj,
                iterations=stats.total_iterations,
                extra={
                    "basis": final_basis,
                    "warm_start": stats.warm_start_used,
                    "stats": stats,
                },
            ),
            stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _reconstruct(
        saved: Basis,
        name_to_col: dict[str, int],
        m: int,
        m_ub: int,
        n: int,
        art0: int,
        upper: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Map a saved basis onto the current LP's columns.

        Names that no longer exist are dropped; rows left without a basic
        column are re-covered by their slack (``<=`` rows) or artificial.
        Returns ``(basic_cols, upper_cols)`` or ``None`` when the mapping
        cannot yield a square basis.
        """
        basic_cols: list[int] = []
        upper_cols: list[int] = []
        seen: set[int] = set()
        for name, state in saved.statuses:
            col = name_to_col.get(name)
            if col is None or col in seen:
                continue
            if state == "basic":
                seen.add(col)
                basic_cols.append(col)
            elif state == "upper" and col < n and np.isfinite(upper[col]):
                seen.add(col)
                upper_cols.append(col)
        if len(basic_cols) > m:
            return None
        # Complete missing slots row by row: slack first, artificial second.
        for i in range(m):
            if len(basic_cols) == m:
                break
            cand = n + i if i < m_ub else art0 + i
            if cand not in seen:
                seen.add(cand)
                basic_cols.append(cand)
        for i in range(m):
            if len(basic_cols) == m:
                break
            cand = art0 + i
            if cand not in seen:
                seen.add(cand)
                basic_cols.append(cand)
        if len(basic_cols) != m:
            return None
        return (
            np.array(sorted(basic_cols), dtype=np.int64),
            np.array(sorted(upper_cols), dtype=np.int64),
        )


def solve_lp_revised(lp: LinearProgram, basis: Basis | None = None) -> LPResult:
    """Registry adapter: one-shot revised solve with optional warm basis."""
    return RevisedSimplexSolver().solve(lp, basis=basis)
