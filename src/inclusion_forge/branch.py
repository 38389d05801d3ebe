"""The square-root branch q of p(zeta) = prod (zeta - k_i) over the slits.

With 2n real branch points k_0 < ... < k_{2n-1} and cuts along the slits
l_j = [k_{2j}, k_{2j+1}], the branch is fixed by q(zeta) ~ zeta^n at
infinity.  It is realized as the product over the slits of
rho_j = sqrt((zeta - k_{2j})(zeta - k_{2j+1})), each the branch cut along
its own slit with rho_j ~ zeta at infinity, so the product is continuous
exactly on the cut plane.  This is the product of the principal roots
prod sqrt(zeta - k_i) with one square root per slit instead of two.

On the banks q is pure imaginary: approaching slit m from above gives
q = i * (-1)^(n-1-m) * |q|, so the top-bank sign alternates slit to slit and
is +i on the rightmost slit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import EvaluationError, SlitConfiguration
from .quadrature import cheb_nodes, like_input, slit_roots


@dataclass(frozen=True)
class BranchData:
    """Branch points of one slit configuration."""

    endpoints: tuple[float, ...]

    def __init__(self, endpoints) -> None:
        if isinstance(endpoints, SlitConfiguration):
            endpoints = endpoints.endpoints
        object.__setattr__(self, "endpoints", tuple(float(k) for k in endpoints))
        e = self.endpoints
        if len(e) % 2 != 0 or len(e) < 2:
            raise EvaluationError("branch needs an even number of endpoints")
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise EvaluationError("branch endpoints must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.endpoints) // 2

    @property
    def slits(self) -> tuple[tuple[float, float], ...]:
        e = self.endpoints
        return tuple((e[2 * j], e[2 * j + 1]) for j in range(self.n))

    def slit(self, j: int) -> tuple[float, float]:
        return self.endpoints[2 * j], self.endpoints[2 * j + 1]


def top_bank_sign(n: int, m: int) -> int:
    """Sign s with q = s * i * |q| on the top bank of slit m (0-based)."""
    return -1 if (n - 1 - m) % 2 else 1


def check_bank(bank) -> None:
    """Raise :class:`EvaluationError` unless bank is +1 (above) or -1 (below)."""
    if bank not in (+1, -1):
        raise EvaluationError(f"bank must be +1 or -1, got {bank!r}")


def check_on_slit(branch: BranchData, x: np.ndarray, m: int) -> None:
    """Raise :class:`EvaluationError` if any real parameter lies off closed slit m."""
    a, b = branch.slit(m)
    if np.any((x < a) | (x > b)):
        raise EvaluationError(f"xi outside closed slit {m} = [{a}, {b}]")


def reject_on_slits(branch: BranchData, z: np.ndarray) -> None:
    """Raise :class:`EvaluationError` if any complex target lies on a closed slit."""
    on_cut = z.imag == 0.0
    if np.any(on_cut):
        x = np.where(on_cut, z.real, np.inf)
        for a, b in branch.slits:
            if np.any((x >= a) & (x <= b)):
                raise EvaluationError(
                    "q is two-valued on the slits; use bank_value there"
                )


def eval_q(branch: BranchData, zeta):
    """Evaluate the branch off the slits; scalars and arrays accepted.

    q is the product over the slits of sqrt((zeta - a_j)(zeta - b_j)), one
    root per slit (:func:`~inclusion_forge.quadrature.slit_roots`).  Points
    on a closed slit are rejected: the two banks carry different values
    there, use :func:`bank_value` instead.
    """
    z = np.asarray(zeta, dtype=complex)
    reject_on_slits(branch, z)
    vals = np.ones(z.shape, dtype=complex)
    for a, b in branch.slits:  # one slit at a time: no targets x n temporary
        vals *= slit_roots([a], [b], z).rho[0]
    return like_input(vals, zeta)


def abs_q(branch: BranchData, xi):
    """|q(xi)| = sqrt(|p(xi)|) for real xi (any position)."""
    x = np.asarray(xi, dtype=float)
    k = np.asarray(branch.endpoints)
    p = np.prod(x[..., None] - k, axis=-1)
    out = np.sqrt(np.abs(p))
    return like_input(out, xi)


def bank_value(branch: BranchData, xi, m: int, bank: int):
    """Boundary value of q on bank +1 (above) or -1 (below) of slit m.

    Endpoints return exactly 0; strictly interior points return the pure
    imaginary value +-i (-1)^(n-1-m) |q(xi)|.
    """
    check_bank(bank)
    x = np.asarray(xi, dtype=float)
    check_on_slit(branch, x, m)
    a, b = branch.slit(m)
    sign = bank * top_bank_sign(branch.n, m)
    vals = 1j * sign * abs_q(branch, x)
    vals = np.where((x == a) | (x == b), 0.0 + 0.0j, vals)
    return like_input(vals, xi)


def weight_factor(branch: BranchData, xi, j: int):
    """Smooth positive factor r_j with |q| = r_j * sqrt((xi-a)(b-xi)) on slit j.

    The vanishing endpoint factors of slit j are removed analytically, so
    r_j stays finite and strictly positive on the closed slit and densities
    divided by it remain smooth.
    """
    x = np.asarray(xi, dtype=float)
    check_on_slit(branch, x, j)
    k = np.asarray(branch.endpoints)
    others = np.delete(k, [2 * j, 2 * j + 1])
    prod = np.prod(np.abs(x[..., None] - others), axis=-1)
    out = np.sqrt(prod)
    return like_input(out, xi)


@dataclass(frozen=True)
class SlitTable:
    """The N first-kind Chebyshev nodes of every slit and r_j at them.

    ``nodes[j]`` are the nodes of slit j, ordered like :func:`cheb_nodes`,
    and ``r[j]`` the smooth factor of :func:`weight_factor` there; both have
    shape (n, N) and are read-only.  Every integral over the slits with the
    1/|q| weight is one Gauss-Chebyshev sum per row (:meth:`integrate`).
    """

    nodes: np.ndarray
    r: np.ndarray

    @property
    def N(self) -> int:
        return self.nodes.shape[-1]

    @cached_property
    def powers(self) -> np.ndarray:
        """xi^m at the nodes for m = 0..n-1: shape (n, n, N), read-only."""
        out = np.stack([self.nodes**m for m in range(self.nodes.shape[0])])
        out.setflags(write=False)
        return out

    def integrate(self, samples) -> np.ndarray:
        """integral over slit j of f / |q| for f sampled at the nodes, per row.

        ``samples`` has shape (..., n, N); the result has shape (..., n).
        """
        return (np.pi / self.N) * np.sum(samples / self.r, axis=-1)


def slit_table(branch: BranchData, N: int) -> SlitTable:
    """Nodes and smooth weight factors of every slit for the N-point rule."""
    n = branch.n
    ends = np.reshape(branch.endpoints, (n, 2))
    nodes = cheb_nodes(ends[:, :1], ends[:, 1:], N)
    # row j: the 2n - 2 endpoints of the other slits, in increasing order
    others = np.broadcast_to(ends, (n, n, 2))[~np.eye(n, dtype=bool)]
    others = others.reshape(n, 2 * n - 2)
    r = np.sqrt(np.prod(np.abs(nodes[..., None] - others[:, None, :]), axis=-1))
    nodes.setflags(write=False)
    r.setflags(write=False)
    return SlitTable(nodes, r)
