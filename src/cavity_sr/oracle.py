"""Exact Lindblad master-equation integrator for small systems.

Ground truth for validating the stochastic and mean-field solvers, always
run from the fully excited cavity vacuum.  Two bases:

* collective - the dissipator uses only collective operators, so total spin
  J = N/2 is conserved and the Dicke ladder |J, m> x Fock(0..N) suffices,
  dimension (N+1)^2; N <= 60.
* individual - full product basis 2^N x Fock(0..N); N <= 6.

The Hamiltonian conserves the excitation number n_exc (excited atoms + photons)
and every jump lowers it by one on both sides of rho.  The initial state has
n_exc = N, so rho stays block-diagonal: it only ever holds entries (i, j) with
n_exc(i) = n_exc(j) = k <= N.  Those states hold at most N photons, which is
why the Fock space 0..N is exact and no photon cutoff is needed.

The generator acts on those blocks alone.  The state vector y lists the blocks
rho_k for k = N, N-1, ..., 0, each row-major over the states of sector k in
basis order, so y[0] is the initial population and entry (i, j) of rho_k sits
at offset_k + local(i) * size_k + local(j).  S_z and c^dag c, diagonal in both
bases, are read from the populations alone.

Memory is O(d) plus populations x grid points, d = len(y): the integrator
holds a few copies of y, and the recorded history keeps only the
populations, one per basis state with n_exc <= N, at each grid point.  The
collective limit is set by time: N = 60 at g = 10, kappa = 100 took 24 s
and 158 MiB peak RSS on 2 shared vCPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import DOP853, solve_ivp

from .params import NumericalParams, SystemParams, SCHEME_COLLECTIVE
from .series import ObservableSeries, time_grid

MAX_COLLECTIVE_ATOMS = 60
MAX_INDIVIDUAL_ATOMS = 6

RTOL = 1e-10
ATOL = 1e-12
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class BasisDescriptor:
    kind: str                   # "collective" | "individual"
    n_atoms: int

    @property
    def atom_dim(self) -> int:
        return self.n_atoms + 1 if self.kind == SCHEME_COLLECTIVE else 2 ** self.n_atoms

    @property
    def cavity_dim(self) -> int:
        return self.n_atoms + 1

    @property
    def dim(self) -> int:
        return self.atom_dim * self.cavity_dim

    @property
    def photons(self) -> np.ndarray:
        """Photon number of each basis state (atom-major ordering)."""
        return np.tile(np.arange(self.cavity_dim), self.atom_dim)

    @property
    def excited_atoms(self) -> np.ndarray:
        """Number of excited atoms in each basis state; atomic index 0 is
        the fully excited state in both bases."""
        if self.kind == SCHEME_COLLECTIVE:
            ground = np.arange(self.atom_dim)
        else:                   # per-atom bit 1 is |g>
            ground = np.array([bin(k).count("1") for k in range(self.atom_dim)])
        return np.repeat(self.n_atoms - ground, self.cavity_dim)


@dataclass(frozen=True)
class Liouvillian:
    """dy/dt = generator @ y on the sector blocks of rho (module docstring):
    A rho + rho A^dag + sum_k rate_k L_k rho L_k^dag with A = -i H - (1/2)
    sum_k rate_k L_k^dag L_k, rates the full Lindblad prefactors (2*kappa,
    2*Gamma, 2*gamma).  Population p of state states[p] is y[diagonal[p]]."""

    basis: BasisDescriptor
    generator: sparse.csr_array
    states: np.ndarray
    diagonal: np.ndarray

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return self.basis.dim


def _cavity_annihilator(basis: BasisDescriptor):
    a = sparse.diags(np.sqrt(np.arange(1.0, basis.cavity_dim)), 1, dtype=complex)
    return sparse.kron(sparse.identity(basis.atom_dim), a, format="csr")


def collective_operators(basis: BasisDescriptor):
    """([S_minus], c) as sparse matrices on the Dicke ladder x Fock space;
    index 0 of the ladder is the fully excited state m = +J."""
    j = 0.5 * basis.n_atoms
    m = j - np.arange(basis.n_atoms)        # upper state of each S- step
    ladder = sparse.diags(np.sqrt(j * (j + 1) - m * (m - 1)), -1, dtype=complex)
    return ([sparse.kron(ladder, sparse.identity(basis.cavity_dim), format="csr")],
            _cavity_annihilator(basis))


def individual_operators(basis: BasisDescriptor):
    """([sigma_minus^i], c) as sparse matrices on the 2^N product x Fock
    space; per-atom basis |e> = index 0, atom 0 the most significant bit."""
    n = basis.n_atoms
    sm1 = sparse.diags([1.0], -1, shape=(2, 2), dtype=complex)
    sigma_minus = [sparse.kron(sparse.kron(sparse.identity(2 ** i), sm1),
                               sparse.identity(2 ** (n - 1 - i) * basis.cavity_dim),
                               format="csr") for i in range(n)]
    return sigma_minus, _cavity_annihilator(basis)


def _equal_sector_pairs(left: np.ndarray, right: np.ndarray):
    """All index pairs (p, q) with left[p] == right[q]."""
    order = np.argsort(right, kind="stable")
    first = np.searchsorted(right[order], left, "left")
    count = np.searchsorted(right[order], left, "right") - first
    p = np.repeat(np.arange(left.size), count)
    within = np.arange(p.size) - np.repeat(np.cumsum(count) - count, count)
    return p, order[np.repeat(first, count) + within]


def check_atom_number(scheme: str, n_atoms: int) -> None:
    """Raise ValueError if the scheme's oracle cannot hold n_atoms atoms."""
    limit = MAX_COLLECTIVE_ATOMS if scheme == SCHEME_COLLECTIVE else MAX_INDIVIDUAL_ATOMS
    if n_atoms > limit:
        raise ValueError(f"{scheme} oracle limited to N <= {limit}")


def build_liouvillian(params: SystemParams) -> Liouvillian:
    """Master equation with the cavity jump c at rate 2*kappa and either the
    collective jump S_minus at rate 2*Gamma or N independent jumps
    sigma_minus^i at rate 2*gamma each, on the sector blocks of rho."""
    check_atom_number(params.scheme, params.n_atoms)
    basis = BasisDescriptor(params.scheme, params.n_atoms)
    operators = collective_operators if basis.kind == SCHEME_COLLECTIVE else individual_operators
    jumps, c = operators(basis)
    s_minus = sum(jumps)
    # H = Delta c^dag c + g (S+ c + S- c^dag), rotating at the atomic frequency
    h = params.detuning * (c.conj().T @ c) \
        + params.g * (s_minus.conj().T @ c + s_minus @ c.conj().T)
    collapse = [(2.0 * params.kappa, c)] + [(2.0 * params.gamma, op) for op in jumps]
    a = -1j * h - 0.5 * sum(rate * (op.conj().T @ op) for rate, op in collapse)

    # sector k = n_exc of each basis state; blocks lists the reachable
    # sectors N, N-1, ..., 0, each in basis order
    sector = basis.excited_atoms + basis.photons
    blocks = [np.flatnonzero(sector == k) for k in range(basis.n_atoms, -1, -1)]
    states = np.concatenate(blocks)
    size = np.bincount(sector[states])                        # indexed by k
    offset = np.cumsum((size ** 2)[::-1])[::-1] - size ** 2   # blocks above k
    local = np.zeros(basis.dim, dtype=np.intp)
    local[states] = np.concatenate([np.arange(block.size) for block in blocks])

    def position(i, j):
        return offset[sector[i]] + local[i] * size[sector[i]] + local[j]

    def entries(op):
        # an explicit zero could join two sectors, so only nonzeros count
        op = sparse.coo_array(op)
        keep = (op.data != 0) & (sector[op.col] <= basis.n_atoms)
        return op.row[keep], op.col[keep], op.data[keep]

    def sandwich(x, y, scale=1.0):
        # rho -> scale x rho y^dag: x[i, m] rho[m, n] conj(y[j, n]) feeds (i, j)
        (i, m, xv), (j, n, yv) = x, y
        p, q = _equal_sector_pairs(sector[m], sector[n])
        return position(i[p], j[q]), position(m[p], n[q]), scale * xv[p] * yv[q].conj()

    eye = (states, states, np.ones(states.size, dtype=complex))
    terms = [sandwich(entries(a), eye), sandwich(eye, entries(a))]
    terms += [sandwich(entries(op), entries(op), rate) for rate, op in collapse]
    rows, cols, values = (np.concatenate(parts) for parts in zip(*terms))
    generator = sparse.csr_array((values, (rows, cols)), shape=(size @ size,) * 2)
    return Liouvillian(basis, generator, states, position(states, states))


class _PopulationsDOP853(DOP853):
    """DOP853 whose dense output is its interpolant at y[diagonal] alone, so
    solve_ivp(t_eval=...) stacks the populations and not the state.  The
    interpolant acts entry by entry, so the values are the full one's bits."""

    def __init__(self, *args, diagonal, **kwargs):
        super().__init__(*args, **kwargs)
        self.diagonal = diagonal

    def dense_output(self):
        full = super().dense_output()
        return lambda t: full(t)[self.diagonal]


def evolve_density_matrix(liouv: Liouvillian, t_grid: np.ndarray) -> ObservableSeries:
    """<S_z>(t) and <c^dag c>(t) from the fully excited vacuum by DOP853 on the
    sector blocks of rho; raises if the trace drifts beyond 1e-10.  Only the
    populations are kept at each grid point, so memory is O(state) plus
    populations x grid points.  RTOL bounds each step's error, not the
    result's: on stiff cases (individual N = 1, g = 10, kappa = 100) the
    photon mean is 3e-8 from the matrix exponential."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    y0 = np.zeros(liouv.generator.shape[0], dtype=complex)
    y0[0] = 1.0                 # rho_N[0, 0] = |e_1 ... e_N; 0><...|
    sol = solve_ivp(lambda t, y: liouv.generator @ y, (t_grid[0], t_grid[-1]), y0,
                    t_eval=t_grid, method=_PopulationsDOP853, rtol=RTOL, atol=ATOL,
                    diagonal=liouv.diagonal)
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    populations = sol.y.real        # a strided view: a contiguous copy moves bits

    drift = float(np.max(np.abs(populations.sum(axis=0) - 1.0)))
    if drift > TRACE_TOL:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_TOL}")

    basis = liouv.basis
    sz = (basis.excited_atoms[liouv.states] - 0.5 * basis.n_atoms) @ populations
    photon = basis.photons[liouv.states] @ populations
    zeros = np.zeros_like(sz)
    return ObservableSeries(times=t_grid, sz_mean=sz, sz_sem=zeros,
                            photon_mean=photon, photon_sem=zeros,
                            n_atoms=basis.n_atoms)


def solve_oracle(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Exact reference run from the fully excited state on the standard grid."""
    liouv = build_liouvillian(params)
    _, _, times = time_grid(num.dt, num.t_max)
    return evolve_density_matrix(liouv, times)
