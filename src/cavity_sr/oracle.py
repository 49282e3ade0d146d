"""Exact Lindblad master-equation integrator for small systems.

Ground truth for validating the stochastic and mean-field solvers, always
run from the fully excited cavity vacuum.  Two bases:

* collective - the dissipator uses only collective operators, so total spin
  J = N/2 is conserved and the Dicke ladder |J, m> x Fock(0..N) suffices,
  dimension (N+1)^2; N <= 30.
* individual - full product basis 2^N x Fock(0..N); N <= 6.

The master equation is one sparse superoperator on row-major vec(rho).  The
Hamiltonian conserves the excitation number n_exc (excited atoms + photons)
and every jump lowers it by one on both sides of rho.  The initial state has
n_exc = N, so rho only ever holds entries (i, j) with n_exc(i) = n_exc(j) <= N;
those states hold at most N photons, which is why the Fock space 0..N is exact
and no photon cutoff is needed.  Only those entries are propagated, and S_z
and c^dag c, diagonal in both bases, are read from the populations alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .params import NumericalParams, SystemParams
from .series import ObservableSeries, time_grid

MAX_COLLECTIVE_ATOMS = 30
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
        return self.n_atoms + 1 if self.kind == "collective" else 2 ** self.n_atoms

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
        if self.kind == "collective":
            ground = np.arange(self.atom_dim)
        else:                   # per-atom bit 1 is |g>
            ground = np.array([bin(k).count("1") for k in range(self.atom_dim)])
        return np.repeat(self.n_atoms - ground, self.cavity_dim)


class Liouvillian:
    """The master equation d vec(rho)/dt = superop @ vec(rho) on row-major
    vectorized density matrices.

    superop is the CSR matrix of -i[H, rho] + sum_k rate_k D[L_k] rho with
    D[L] rho = L rho L^dag - (1/2){L^dag L, rho}; rates are the full Lindblad
    prefactors (2*kappa, 2*Gamma, 2*gamma).
    """

    def __init__(self, hamiltonian: np.ndarray,
                 collapse: List[Tuple[float, np.ndarray]],
                 basis: BasisDescriptor):
        self.hamiltonian = hamiltonian
        self.basis = basis
        self.dim = hamiltonian.shape[0]
        # -i[H, rho] - (1/2){G, rho} = A rho + rho A^dag with
        # A = -i H - (1/2) G, G = sum_k rate_k L_k^dag L_k
        ops = [(rate, sparse.csr_array(op)) for rate, op in collapse]
        a = -1j * sparse.csr_array(hamiltonian)
        for rate, op in ops:
            a = a - 0.5 * rate * (op.conj().T @ op)
        eye = sparse.identity(self.dim, dtype=complex, format="csr")
        # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
        jumps = sum(rate * sparse.kron(op, op.conj(), format="csr") for rate, op in ops)
        self.superop = sparse.csr_array(sparse.kron(a, eye, format="csr")
                                        + sparse.kron(eye, a.conj(), format="csr") + jumps)


def _fock_annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def collective_operators(basis: BasisDescriptor):
    """(S_minus, c) on the Dicke ladder x Fock space; index 0 of the
    ladder is the fully excited state m = +J."""
    n = basis.n_atoms
    j = 0.5 * n
    m = j - np.arange(n + 1)
    sm_at = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        sm_at[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] - 1))
    eye_at = np.eye(n + 1, dtype=complex)
    eye_c = np.eye(basis.cavity_dim, dtype=complex)
    a = _fock_annihilator(basis.cavity_dim)
    return np.kron(sm_at, eye_c), np.kron(eye_at, a)


def individual_operators(basis: BasisDescriptor):
    """([sigma_minus^i], c) on the 2^N product x Fock space; per-atom
    basis |e> = index 0."""
    n = basis.n_atoms
    sm1 = np.array([[0, 0], [1, 0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    def chain(op, i):
        out = np.ones((1, 1), dtype=complex)
        for k in range(n):
            out = np.kron(out, op if k == i else eye2)
        return out

    eye_c = np.eye(basis.cavity_dim, dtype=complex)
    a = _fock_annihilator(basis.cavity_dim)
    sigma_minus = [np.kron(chain(sm1, i), eye_c) for i in range(n)]
    eye_at = np.eye(basis.atom_dim, dtype=complex)
    return sigma_minus, np.kron(eye_at, a)


def _hamiltonian(params: SystemParams, s_minus, c) -> np.ndarray:
    """H = Delta c^dag c + g (S+ c + S- c^dag), rotating at the atomic frequency."""
    s_plus = s_minus.conj().T
    return (params.detuning * (c.conj().T @ c)
            + params.g * (s_plus @ c + s_minus @ c.conj().T))


def build_liouvillian_collective(params: SystemParams) -> Liouvillian:
    """Master equation with the collective jump S_minus at rate 2*Gamma and
    the cavity jump c at rate 2*kappa."""
    if params.gamma_col is None:
        raise ValueError("collective oracle needs gamma_col")
    if params.n_atoms > MAX_COLLECTIVE_ATOMS:
        raise ValueError(f"collective oracle limited to N <= {MAX_COLLECTIVE_ATOMS}")
    basis = BasisDescriptor("collective", params.n_atoms)
    sm, c = collective_operators(basis)
    h = _hamiltonian(params, sm, c)
    return Liouvillian(h, [(2.0 * params.kappa, c), (2.0 * params.gamma_col, sm)], basis)


def build_liouvillian_individual(params: SystemParams) -> Liouvillian:
    """Master equation with N independent jumps sigma_minus^i at rate 2*gamma
    each, plus the cavity jump."""
    if params.gamma_ind is None:
        raise ValueError("individual oracle needs gamma_ind")
    if params.n_atoms > MAX_INDIVIDUAL_ATOMS:
        raise ValueError(f"individual oracle limited to N <= {MAX_INDIVIDUAL_ATOMS}")
    basis = BasisDescriptor("individual", params.n_atoms)
    sigma_minus, c = individual_operators(basis)
    h = _hamiltonian(params, sum(sigma_minus), c)
    collapse = [(2.0 * params.kappa, c)]
    collapse += [(2.0 * params.gamma_ind, sm) for sm in sigma_minus]
    return Liouvillian(h, collapse, basis)


def build_liouvillian(params: SystemParams) -> Liouvillian:
    if params.scheme == "collective":
        return build_liouvillian_collective(params)
    return build_liouvillian_individual(params)


def invariant_entries(basis: BasisDescriptor) -> np.ndarray:
    """Row-major vec(rho) positions of the entries (i, j) with
    n_exc(i) = n_exc(j) <= N, the ones the fully excited vacuum (vec
    position 0) can reach; the dynamics never leaves them."""
    n_exc = basis.excited_atoms + basis.photons
    reachable = n_exc <= basis.n_atoms
    keep = reachable[:, None] & (n_exc[:, None] == n_exc[None, :])
    return np.flatnonzero(keep)


def evolve_density_matrix(liouv: Liouvillian, t_grid: np.ndarray) -> ObservableSeries:
    """<S_z>(t) and <c^dag c>(t) from the fully excited vacuum by deterministic
    integration of the master equation on the entries of rho it can reach
    (rtol 1e-10); raises if the trace drifts beyond 1e-10."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    basis = liouv.basis
    kept = invariant_entries(basis)
    restricted = liouv.superop[kept][:, kept]

    def rhs(t, y):
        return restricted @ y

    y0 = np.zeros(kept.size, dtype=complex)
    y0[0] = 1.0                 # kept[0] = 0: |e_1 ... e_N; 0><...|
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0,
                    t_eval=t_grid, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    # rho_ii sits at vec position i * (d + 1)
    on_diagonal = kept % (liouv.dim + 1) == 0
    states = kept[on_diagonal] // (liouv.dim + 1)
    populations = sol.y[on_diagonal].real

    drift = float(np.max(np.abs(populations.sum(axis=0) - 1.0)))
    if drift > TRACE_TOL:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_TOL}")

    sz = (basis.excited_atoms[states] - 0.5 * basis.n_atoms) @ populations
    photon = basis.photons[states] @ populations
    zeros = np.zeros_like(sz)
    return ObservableSeries(times=t_grid, sz_mean=sz, sz_sem=zeros,
                            photon_mean=photon, photon_sem=zeros,
                            n_atoms=basis.n_atoms)


def solve_oracle(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Exact reference run from the fully excited state on the standard grid."""
    liouv = build_liouvillian(params)
    _, _, times = time_grid(num.dt, num.t_max)
    return evolve_density_matrix(liouv, times)
