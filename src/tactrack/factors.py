"""Factor definitions and the nonlinear least-squares solver.

Variables are object poses ``o_t`` and end-effector poses ``e_t``; factors
whiten their twist residuals by per-axis sigmas.  Every residual is
``log(M^-1 * G)`` of a composition ``G`` of poses, so each factor supplies
closed-form Jacobians in the tangent space of a right perturbation
``X * exp(d)``: a variable appearing in ``G`` as ``P * X * Q`` gets
``Jr^-1(r) Ad(Q^-1)``, one appearing as ``P * X^-1 * Q`` gets
``-Jr^-1(r) Ad(Q^-1 X)`` (Sola, Deray & Atchuthan, "A micro Lie theory for
state estimation in robotics", arXiv:1812.01537).  The central-difference
Jacobian in :mod:`geometry` is only the tests' oracle for them.  The solver is
Levenberg-Marquardt with right-multiplicative retraction of each pose block.

Frame convention: with world-from-body poses, the object-from-sensor
transform is ``o_t^-1 * e_t`` and the step-to-step relative transform is
``(o_{t-1}^-1 e_{t-1})^-1 (o_t^-1 e_t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import Pose


class GaugeError(RuntimeError):
    """A variable is not constrained by any factor."""


class DivergenceError(RuntimeError):
    """The optimizer produced a non-finite cost."""


class VariableKey(NamedTuple):
    kind: str  # "object" | "endeffector"
    t: int

    def label(self) -> str:
        return ("o" if self.kind == "object" else "e") + str(self.t)


def obj_key(t: int) -> VariableKey:
    return VariableKey("object", t)


def eff_key(t: int) -> VariableKey:
    return VariableKey("endeffector", t)


@dataclass
class NoiseModel:
    """Per-axis sigmas, rotation (rad) first then translation (mm)."""

    sigmas: np.ndarray

    def __post_init__(self):
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.sigmas.shape != (6,) or not (self.sigmas > 0).all():
            raise ValueError("noise model needs 6 strictly positive sigmas")

    @staticmethod
    def isotropic(sigma_rot: float, sigma_trans: float) -> "NoiseModel":
        return NoiseModel(np.array([sigma_rot] * 3 + [sigma_trans] * 3))

    def whiten(self, residual: np.ndarray) -> np.ndarray:
        """Scale each row of a residual (6,) or a Jacobian (6, k)."""
        return (residual.T / self.sigmas).T


class Factor:
    keys: tuple
    noise: NoiseModel
    name = "factor"

    def residual_raw(self, values: dict) -> np.ndarray:
        raise NotImplementedError

    def residual(self, values: dict) -> np.ndarray:
        return self.noise.whiten(self.residual_raw(values))

    def jacobians(self, values: dict, r: np.ndarray) -> list:
        """Unwhitened 6x6 Jacobians of `residual_raw` at `values`, one per
        key in `keys`, given the raw residual `r` there."""
        raise NotImplementedError


def _ad_inv(a: Pose) -> np.ndarray:
    return geometry.adjoint(geometry.inverse(a))


@dataclass
class PriorFactor(Factor):
    """Unary pose prior; used for both end-effector and vision priors."""

    key: VariableKey
    measured: Pose
    noise: NoiseModel
    name: str = "prior"

    def __post_init__(self):
        self.keys = (self.key,)

    def residual_raw(self, values):
        return geometry.ominus(self.measured, values[self.key])

    def jacobians(self, values, r):
        return [geometry.right_jacobian_inv(r)]


def eff_prior(t: int, measured: Pose, noise: NoiseModel) -> PriorFactor:
    return PriorFactor(eff_key(t), measured, noise, name="eff_prior")


def vis_prior(t: int, measured: Pose, noise: NoiseModel) -> PriorFactor:
    return PriorFactor(obj_key(t), measured, noise, name="vis_prior")


@dataclass
class ConstVelFactor(Factor):
    """Ternary smoothness prior over consecutive object pose triplets."""

    t: int
    noise: NoiseModel
    name = "const_vel"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 2), obj_key(self.t - 1), obj_key(self.t))

    def residual_raw(self, values):
        a, b, c = (values[k] for k in self.keys)
        step_prev = geometry.compose(geometry.inverse(a), b)
        step_curr = geometry.compose(geometry.inverse(b), c)
        return geometry.ominus(step_prev, step_curr)

    def jacobians(self, values, r):
        # G = b^-1 a b^-1 c: b appears twice, and its two terms add.
        a, b, c = (values[k] for k in self.keys)
        jr_inv = geometry.right_jacobian_inv(r)
        ad_c_inv_b = _ad_inv(geometry.compose(geometry.inverse(b), c))
        ad_step_prev = geometry.adjoint(
            geometry.compose(geometry.inverse(a), b))
        j_prev = jr_inv @ ad_c_inv_b
        return [j_prev, -j_prev @ ad_step_prev - j_prev, jr_inv]


@dataclass
class MotionPriorFactor(Factor):
    """Binary zero-motion prior between consecutive object poses.

    The smoothness chain penalizes velocity changes only, so a steady drift
    costs nothing; anchoring the first step at zero motion removes that
    free direction.
    """

    t: int
    noise: NoiseModel
    name = "motion_prior"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 1), obj_key(self.t))

    def residual_raw(self, values):
        a, b = (values[k] for k in self.keys)
        return geometry.ominus(a, b)

    def jacobians(self, values, r):
        a, b = (values[k] for k in self.keys)
        jr_inv = geometry.right_jacobian_inv(r)
        return [-jr_inv @ _ad_inv(geometry.compose(geometry.inverse(a), b)),
                jr_inv]


@dataclass
class Im2ImFactor(Factor):
    """Binary factor on consecutive (object, end-effector) pairs from
    image-to-image ICP registration."""

    t: int
    measured: Pose  # maps sensor frame at t into sensor frame at t-1
    noise: NoiseModel
    name = "im2im"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 1), eff_key(self.t - 1),
                     obj_key(self.t), eff_key(self.t))

    def residual_raw(self, values):
        o_prev, e_prev, o_curr, e_curr = (values[k] for k in self.keys)
        rel_prev = geometry.compose(geometry.inverse(o_prev), e_prev)
        rel_curr = geometry.compose(geometry.inverse(o_curr), e_curr)
        graph_rel = geometry.compose(geometry.inverse(rel_prev), rel_curr)
        return geometry.ominus(self.measured, graph_rel)

    def jacobians(self, values, r):
        # G = e_prev^-1 o_prev o_curr^-1 e_curr.
        o_prev, e_prev, o_curr, e_curr = (values[k] for k in self.keys)
        rel_prev = geometry.compose(geometry.inverse(o_prev), e_prev)
        rel_curr = geometry.compose(geometry.inverse(o_curr), e_curr)
        jr_inv = geometry.right_jacobian_inv(r)
        j_obj = jr_inv @ _ad_inv(rel_curr)
        j_eff_prev = -jr_inv @ _ad_inv(
            geometry.compose(geometry.inverse(rel_prev), rel_curr))
        return [j_obj, j_eff_prev, -j_obj, jr_inv]


@dataclass
class Im2PatchFactor(Factor):
    """Factor tying the object-from-sensor transform to ICP registration
    against the local patch map (or a known object model)."""

    t: int
    measured: Pose  # object-from-sensor
    noise: NoiseModel
    name = "im2patch"

    def __post_init__(self):
        self.keys = (obj_key(self.t), eff_key(self.t))

    def residual_raw(self, values):
        o, e = (values[k] for k in self.keys)
        graph_rel = geometry.compose(geometry.inverse(o), e)
        return geometry.ominus(self.measured, graph_rel)

    def jacobians(self, values, r):
        o, e = (values[k] for k in self.keys)
        jr_inv = geometry.right_jacobian_inv(r)
        return [-jr_inv @ _ad_inv(geometry.compose(geometry.inverse(o), e)),
                jr_inv]


@dataclass
class FactorGraph:
    factors: list = field(default_factory=list)

    def add(self, factor: Factor) -> None:
        self.factors.append(factor)

    def __len__(self):
        return len(self.factors)

    def cost(self, values: dict) -> float:
        total = 0.0
        for f in self.factors:
            r = f.residual(values)
            total += 0.5 * float(r @ r)
        return total


@dataclass
class LinearSystem:
    """Stacked whitened residual and Jacobian blocks per factor-variable pair."""

    keys: list                    # column ordering
    col_of: dict                  # VariableKey -> column offset
    blocks: list                  # (row offset, key, 6x6 block)
    residual: np.ndarray          # (6 * num_factors,)

    def dense_jacobian(self) -> np.ndarray:
        jac = np.zeros((len(self.residual), 6 * len(self.keys)))
        for row, key, block in self.blocks:
            col = self.col_of[key]
            jac[row:row + 6, col:col + 6] = block
        return jac


def linearize(graph: FactorGraph, values: dict,
              fixed=frozenset()) -> LinearSystem:
    """Whitened residual stack plus each factor's closed-form Jacobian blocks
    in tangent space.

    Keys in `fixed` are treated as constants: they contribute to residuals
    but receive no Jacobian block or column.
    """
    keys = sorted(k for k in values.keys() if k not in fixed)
    col_of = {k: 6 * i for i, k in enumerate(keys)}
    blocks = []
    residual = np.zeros(6 * len(graph.factors))
    for fi, factor in enumerate(graph.factors):
        row = 6 * fi
        r = factor.residual_raw(values)
        residual[row:row + 6] = factor.noise.whiten(r)
        for key, jac in zip(factor.keys, factor.jacobians(values, r)):
            if key not in fixed:
                blocks.append((row, key, factor.noise.whiten(jac)))
    return LinearSystem(keys=keys, col_of=col_of, blocks=blocks, residual=residual)


@dataclass
class OptimizerParams:
    max_iterations: int = 50
    lambda_init: float = 1e-4
    lambda_scale: float = 10.0
    cost_tolerance: float = 1e-9
    lambda_max: float = 1e10

    def __post_init__(self):
        # lambda must grow on every rejected step, or the damping loop of
        # optimize() never reaches lambda_max and never exits.
        if not self.lambda_scale > 1:
            raise ValueError("optimizer lambda_scale must be > 1")
        if not self.lambda_init > 0:
            raise ValueError("optimizer lambda_init must be > 0")
        if not self.lambda_max >= self.lambda_init:
            raise ValueError("optimizer lambda_max must be >= lambda_init")
        if self.max_iterations < 0 or not self.cost_tolerance >= 0:
            raise ValueError("optimizer max_iterations and cost_tolerance "
                             "must be >= 0")


@dataclass
class OptimizeStats:
    iterations: int
    initial_cost: float
    final_cost: float


def _retract_all(values: dict, keys, delta: np.ndarray) -> dict:
    out = dict(values)
    for i, key in enumerate(keys):
        out[key] = geometry.oplus(values[key], delta[6 * i:6 * i + 6])
    return out


def optimize(graph: FactorGraph, init: dict,
             params: OptimizerParams = None, fixed=frozenset()):
    """Levenberg-Marquardt on the manifold.

    Solves (J^T J + lambda diag(J^T J)) delta = -J^T r, retracts each pose
    block via oplus, and accepts or rejects by cost.  Terminates on relative
    cost change below the tolerance or on the iteration cap; accepted costs
    are monotonically non-increasing.
    """
    params = params or OptimizerParams()
    touched = {k for f in graph.factors for k in f.keys}
    for key in init:
        if key not in touched and key not in fixed:
            raise GaugeError(f"variable {key.label()} has no factor attached")
    for key in touched:
        if key not in init:
            raise KeyError(f"factor references missing variable {key.label()}")

    values = dict(init)
    cost = graph.cost(values)
    initial_cost = cost
    if not np.isfinite(cost):
        raise DivergenceError(f"non-finite initial cost {cost}")

    lam = params.lambda_init
    iterations = 0
    for _ in range(params.max_iterations):
        system = linearize(graph, values, fixed=fixed)
        jac = system.dense_jacobian()
        jtj = jac.T @ jac
        jtr = jac.T @ system.residual
        diag = np.diag(jtj).copy()
        diag[diag < 1e-12] = 1e-12

        accepted = False
        while lam <= params.lambda_max:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= params.lambda_scale
                continue
            candidate = _retract_all(values, system.keys, delta)
            new_cost = graph.cost(candidate)
            if not np.isfinite(new_cost):
                raise DivergenceError(f"non-finite cost {new_cost}")
            if new_cost < cost:
                accepted = True
                break
            lam *= params.lambda_scale
        if not accepted:
            break
        iterations += 1
        improvement = cost - new_cost
        values, cost = candidate, new_cost
        lam = max(lam / params.lambda_scale, 1e-12)
        if improvement < params.cost_tolerance * max(cost, 1.0):
            break
    return values, OptimizeStats(iterations=iterations,
                                 initial_cost=initial_cost, final_cost=cost)
