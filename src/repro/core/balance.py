"""Step 3 — the load-balancing linear program (paper §2.3, eqs. 10–12).

Variables are ``l_ij`` — weight moved from partition ``i`` to neighbouring
partition ``j`` — one per ordered pair with ``δ_ij > 0``.  The paper's
formulation is::

    minimise    Σ l_ij                                    (10)
    subject to  0 ≤ l_ij ≤ δ_ij                           (11)
                net-outflow(q) = |B'(q)| − λ   for all q  (12)

(the orientation follows the worked example in Figure 5: the row for an
overloaded partition forces its *outflow* to carry away its surplus;
``λ = Σ|B'(q)| / P`` is the average load).

We implement the γ-relaxed generalisation directly::

    net-outflow(q) ≥ |B'(q)| − target(γ)     for all q,

where ``target(1) = λ`` recovers (12) exactly — with equal left/right sums
the inequalities pinch to equalities — and ``target(γ>1) = γλ`` is §2.3's
fallback that only requires every partition to end at or below ``γλ``,
letting several cheaper stages reach balance when a single exact step is
infeasible (``δ`` too small).  For integral vertex weights the target is
rounded up (``ceil``) so that "balanced" means the achievable
``max load = ceil(λ)`` rather than an unattainable fractional bound.

Because the constraint matrix is a network (totally unimodular) matrix and
all data are integral in the unit-weight case, the simplex solution is
automatically integral — asserted by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.lp.backends import solve_with_backend
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult
from repro.lp.revised import Basis

__all__ = [
    "BalanceLP",
    "BalanceSolution",
    "build_balance_lp",
    "build_relaxed_balance_lp",
    "extract_moves",
    "solve_balance",
    "solve_stage",
]


@dataclass(frozen=True)
class BalanceLP:
    """A constructed balance LP plus its variable bookkeeping.

    Attributes
    ----------
    lp:
        the :class:`LinearProgram` (minimise total movement).
    pairs:
        ordered ``(i, j)`` partition pairs, aligned with the LP variables
        (the paper's ``l_ij`` layout).
    gamma:
        relaxation factor this LP was built with.
    target:
        per-partition load ceiling implied by ``gamma``.
    """

    lp: LinearProgram
    pairs: list[tuple[int, int]]
    gamma: float
    target: float

    @property
    def num_variables(self) -> int:
        """``v`` of the paper's O(v·c) simplex cost analysis."""
        return self.lp.num_variables

    @property
    def num_constraints(self) -> int:
        """``c`` of the cost analysis (flow rows + finite bound rows).

        The dense tableau treats every finite upper bound as a row (see
        :mod:`repro.lp.standard_form`), which is how the paper counts its
        ``v = 188, c = 126`` example.
        """
        nb = int(np.isfinite(self.lp.upper_bounds).sum()) if self.lp.upper_bounds is not None else 0
        return self.lp.num_constraints + nb


@dataclass(frozen=True)
class BalanceSolution:
    """Solved movement plan.

    Attributes
    ----------
    moves:
        ``(P, P)`` matrix; ``moves[i, j]`` = weight to move ``i → j``.
    result:
        raw :class:`LPResult` from the backend.
    balance_lp:
        the LP that was solved (for instrumentation).
    """

    moves: np.ndarray
    result: LPResult
    balance_lp: BalanceLP

    @property
    def feasible(self) -> bool:
        """True iff the LP had an optimal solution."""
        return self.result.is_optimal

    @property
    def total_movement(self) -> float:
        """Σ l_ij — the deformity the objective minimised."""
        return float(self.moves.sum())


def _load_target(loads: np.ndarray, num_partitions: int, gamma: float) -> float:
    """Per-partition ceiling: γλ, rounded up for integral weights."""
    lam = loads.sum() / num_partitions
    target = gamma * lam
    if np.allclose(loads, np.round(loads)):
        target = np.ceil(target - 1e-9)
    return float(target)


def build_balance_lp(
    delta: np.ndarray,
    loads: np.ndarray,
    gamma: float = 1.0,
    *,
    target: float | None = None,
) -> BalanceLP:
    """Construct the (γ-relaxed) balance LP from ``δ`` and current loads.

    Parameters
    ----------
    delta:
        ``(P, P)`` movable-weight matrix from the layering step.
    loads:
        current ``|B'(q)|`` (or weighted ``W(q)``) per partition.
    gamma:
        §2.3 relaxation; 1.0 = exact balance.
    target:
        explicit per-partition load ceiling, overriding ``gamma`` (used
        by the driver's smallest-feasible-target search).
    """
    loads = np.asarray(loads, dtype=np.float64)
    p = len(loads)
    if delta.shape != (p, p):
        raise ValidationError(f"delta shape {delta.shape} != ({p}, {p})")
    if gamma < 1.0:
        raise ValidationError("gamma must be >= 1")

    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(delta > 0))]
    v = len(pairs)
    if target is None:
        target = _load_target(loads, p, gamma)
    else:
        lam = loads.sum() / p if p else 0.0
        gamma = target / lam if lam > 0 else 1.0

    # net-outflow(q) >= loads[q] - target   <=>   -outflow + inflow <= target - loads[q]
    a_ub = np.zeros((p, v))
    for k, (i, j) in enumerate(pairs):
        a_ub[i, k] -= 1.0  # outflow of i
        a_ub[j, k] += 1.0  # inflow to j
    b_ub = target - loads

    lp = LinearProgram(
        c=np.ones(v),
        A_ub=a_ub,
        b_ub=b_ub,
        upper_bounds=np.array([delta[i, j] for i, j in pairs], dtype=np.float64),
        variable_names=[f"l{i}_{j}" for i, j in pairs],
    )
    return BalanceLP(lp=lp, pairs=pairs, gamma=gamma, target=target)


def build_relaxed_balance_lp(
    delta: np.ndarray, loads: np.ndarray, target: float
) -> BalanceLP:
    """Max-progress stage LP: minimise residual excess through δ.

    When the exact balance LP (eq. 10–12) is infeasible, the paper
    relaxes the balance requirement and runs several stages (§2.3).  The
    maximal progress one stage can make is captured exactly by::

        min  Σ_q e_q + ε Σ l_ij
        s.t. net-outflow(q) + e_q ≥ load_q − target
             0 ≤ l_ij ≤ δ_ij,  e_q ≥ 0

    ``e_q`` is partition ``q``'s excess *after* the stage; the tiny
    ``ε`` (chosen below any 1-unit excess/movement trade-off) makes the
    flow movement-minimal among excess-optimal flows, preserving the
    paper's deformity-minimisation objective.  The constraint matrix is
    a network matrix with an appended identity, hence still totally
    unimodular — integral data keep yielding integral stages.

    Variables are ordered: the ``l_ij`` pairs (as in
    :func:`build_balance_lp`) followed by the ``P`` excess variables.
    """
    loads = np.asarray(loads, dtype=np.float64)
    p = len(loads)
    if delta.shape != (p, p):
        raise ValidationError(f"delta shape {delta.shape} != ({p}, {p})")
    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(delta > 0))]
    v = len(pairs)

    a_ub = np.zeros((p, v + p))
    for k, (i, j) in enumerate(pairs):
        a_ub[i, k] -= 1.0  # outflow of i reduces i's final load
        a_ub[j, k] += 1.0
    a_ub[:, v:] -= np.eye(p)  # −e_q
    b_ub = target - loads

    cap_total = float(delta.sum())
    eps = min(0.5, 1.0 / (2.0 * (cap_total + 1.0)))
    c = np.concatenate([np.full(v, eps), np.ones(p)])
    ub = np.concatenate(
        [np.array([delta[i, j] for i, j in pairs], dtype=np.float64),
         np.full(p, np.inf)]
    )
    lp = LinearProgram(
        c=c,
        A_ub=a_ub,
        b_ub=b_ub,
        upper_bounds=ub,
        variable_names=[f"l{i}_{j}" for i, j in pairs] + [f"e{q}" for q in range(p)],
    )
    return BalanceLP(lp=lp, pairs=pairs, gamma=np.inf, target=float(target))


def extract_moves(bal: BalanceLP, result: LPResult, p: int) -> np.ndarray:
    """Movement matrix from an LP result (clamps fuzz, cancels cycles)."""
    moves = np.zeros((p, p))
    if result.is_optimal:
        x = np.asarray(result.x)[: len(bal.pairs)]
        caps = bal.lp.upper_bounds[: len(bal.pairs)]
        x = np.clip(x, 0.0, caps)
        for k, (i, j) in enumerate(bal.pairs):
            moves[i, j] = x[k]
        both = np.minimum(moves, moves.T)
        moves -= both
    return moves


def _solution(bal: BalanceLP, result: LPResult, p: int) -> BalanceSolution:
    return BalanceSolution(
        moves=extract_moves(bal, result, p), result=result, balance_lp=bal
    )


def solve_stage(
    delta: np.ndarray,
    loads: np.ndarray,
    solve: Callable[[LinearProgram], LPResult],
) -> tuple[BalanceSolution, float] | None:
    """One balance stage: exact LP first, max-progress relaxation second.

    Parameters
    ----------
    delta / loads:
        the layering's ``δ`` matrix and the current per-partition loads;
        the stage target is ``ceil(λ)`` for integral loads, else ``λ``.
    solve:
        ``lp -> LPResult``; the serial driver and each SPMD rank pass
        their own (see :class:`~repro.core.ops.PhaseOps`), so both make
        the same decisions.  A warm-capable solve reads and updates its
        carried basis itself, so the relaxed retry warm-starts from the
        exact attempt.

    Returns
    -------
    (solution, gamma) or None
        gamma is 1.0 for an exact stage; for a relaxed stage ``inf`` (the
        caller computes the effective relaxation from the new loads).
        None when the relaxation cannot move anything (the paper's
        repartition-from-scratch condition).
    """
    p = len(loads)
    lam = float(np.sum(loads)) / p
    integral = bool(np.allclose(loads, np.round(loads)))
    target = float(np.ceil(lam - 1e-9)) if integral else lam
    bal = build_balance_lp(delta, loads, target=target)
    sol = _solution(bal, solve(bal.lp), p)
    if sol.feasible:
        return sol, 1.0
    bal = build_relaxed_balance_lp(delta, loads, target)
    sol = _solution(bal, solve(bal.lp), p)
    if sol.feasible and sol.total_movement > 1e-9:
        return sol, np.inf
    return None


def solve_balance(
    delta: np.ndarray,
    loads: np.ndarray,
    gamma: float = 1.0,
    lp_backend: str = "tableau",
    *,
    target: float | None = None,
    basis: Basis | None = None,
) -> BalanceSolution:
    """Build and solve the balance LP; always returns (check ``feasible``).

    ``basis`` warm-starts warm-capable backends (``"revised"``); other
    backends ignore it.
    """
    bal = build_balance_lp(delta, loads, gamma, target=target)
    return _solution(bal, solve_with_backend(lp_backend, bal.lp, basis), len(loads))
