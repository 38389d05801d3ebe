"""The branch points of the square-root branch q of p(zeta) = prod (zeta - k_i), and q on the slits.

With 2n real branch points k_0 < ... < k_{2n-1} and cuts along the slits
l_j = [k_{2j}, k_{2j+1}], the branch is fixed by q(zeta) ~ zeta^n at
infinity.  Off the slits it is the product over the slits of
rho_j = sqrt((zeta - k_{2j})(zeta - k_{2j+1})), each the branch cut along
its own slit with rho_j ~ zeta at infinity, so the product is continuous
exactly on the cut plane: the product of the principal roots
prod sqrt(zeta - k_i) with one square root per slit instead of two.  The
off-slit sums form it from the roots
:func:`~inclusion_forge.quadrature.slit_roots` gives their Cauchy kernels.

On the banks q is pure imaginary: approaching slit m from above gives
q = i * (-1)^(n-1-m) * |q|, so the top-bank sign alternates slit to slit and
is +i on the rightmost slit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import EvaluationError
from .quadrature import cheb_nodes, like_input


@dataclass(frozen=True)
class BranchData:
    """Branch points of one slit configuration."""

    endpoints: tuple[float, ...]

    def __init__(self, endpoints) -> None:
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

    @property
    def gaps(self) -> np.ndarray:
        """The n - 1 gap midpoints g_k, each halfway between neighbouring slits."""
        e = np.reshape(self.endpoints, (self.n, 2))
        return 0.5 * (e[1:, 0] + e[:-1, 1])

    def omega(self, x):
        """omega(x) = prod_k (x - g_k), multiplied in gap order (1 for one slit)."""
        out = np.ones_like(x) if self.n == 1 else x - self.gaps[0]
        for node in self.gaps[1:]:
            out *= x - node
        return out

    def lagrange(self, x) -> np.ndarray:
        """L_k(x) = omega(x) / ((x - g_k) omega'(g_k)), 1 at g_k and 0 at the other g_j.

        The result has shape (n - 1,) + x.shape.
        """
        x, g = np.asarray(x, dtype=float), self.gaps
        diff = g[:, None] - g
        np.fill_diagonal(diff, 1.0)  # the product of row k is omega'(g_k)
        shape = (-1,) + (1,) * x.ndim
        denom = (x - g.reshape(shape)) * diff.prod(axis=1).reshape(shape)
        # at x = g_k the quotient is 0 / 0, and L_k is 1
        return np.divide(self.omega(x), denom, out=np.ones_like(denom), where=denom != 0.0)


def check_on_slit(branch: BranchData, x: np.ndarray, m: int) -> None:
    """Raise :class:`EvaluationError` if any real parameter lies off closed slit m."""
    a, b = branch.slit(m)
    if np.any((x < a) | (x > b)):
        raise EvaluationError(f"xi outside closed slit {m} = [{a}, {b}]")


def reject_on_slits(branch: BranchData, z: np.ndarray) -> None:
    """Raise :class:`EvaluationError` naming the first closed slit that a complex target lies on."""
    on_cut = z.imag == 0.0
    if np.any(on_cut):
        x = np.where(on_cut, z.real, np.inf)
        for j, (a, b) in enumerate(branch.slits):
            if np.any((x >= a) & (x <= b)):
                raise EvaluationError(
                    f"target on closed slit {j} = [{a}, {b}], where q is two-valued;"
                    " its boundary values on both banks come from SlitMap.banks"
                )


def abs_q(branch: BranchData, xi):
    """|q(xi)| = sqrt(|p(xi)|) for real xi (any position).

    p is accumulated one endpoint at a time, in increasing order, so no
    temporary of targets x endpoints is formed.
    """
    x = np.asarray(xi, dtype=float)
    k = branch.endpoints
    p = x - k[0]
    for point in k[1:]:
        p *= x - point
    out = np.sqrt(np.abs(p))
    return like_input(out, xi)


def _smooth_factor(branch: BranchData, x: np.ndarray, slit) -> np.ndarray:
    """r_j = sqrt(prod |x - k|) over the endpoints k of the other slits; j = ``slit`` broadcasts against x.

    On slit j, |q| = r_j sqrt((x - a_j)(b_j - x)): r_j is finite and positive
    on the closed slit, so densities divided by it stay smooth.

    Multiplied one endpoint at a time in increasing order from ones, as in :func:`abs_q`, so
    one slit gives 1 and no targets x endpoints temporary is formed; own endpoints multiply by 1.
    """
    out = np.ones(x.shape)
    for i, point in enumerate(branch.endpoints):
        out *= np.where(slit == i // 2, 1.0, np.abs(x - point))
    return np.sqrt(out)


@dataclass(frozen=True)
class SlitTable:
    """The N first-kind Chebyshev nodes of every slit and r_j at them.

    ``nodes[j]`` are the nodes of slit j, ordered like :func:`cheb_nodes`,
    and ``r[j]`` the smooth factor r_j of :func:`_smooth_factor` there; both have
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
    r = _smooth_factor(branch, nodes, np.arange(n)[:, None])
    nodes.setflags(write=False)
    r.setflags(write=False)
    return SlitTable(nodes, r)
