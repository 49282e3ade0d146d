"""Brute-force Lindblad master-equation integrator for small systems.

Ground truth for validating the stochastic and mean-field solvers.  Two bases:

* collective - the dissipator uses only collective operators, so total spin
  J = N/2 is conserved and the Dicke ladder |J, m> x Fock(cutoff) suffices,
  dimension (N+1)(cutoff+1); reaches N ~ 10.
* individual - full product basis 2^N x Fock(cutoff); N <= ~6, dense.

The default photon cutoff is N + 1: the Hamiltonian conserves excitation
number and dissipation only removes it, so the photon number never exceeds N
(the extra level absorbs integrator transients and is monitored for
saturation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .params import NumericalParams, SystemParams
from .series import ObservableSeries

MAX_COLLECTIVE_ATOMS = 12
MAX_INDIVIDUAL_ATOMS = 6
_DENSE_SUPEROP_DIM = 48        # to_matrix() guard: (d^2)^2 complex entries

RTOL = 1e-10
ATOL = 1e-12
TRACE_TOL = 1e-10
SATURATION_TOL = 1e-6


class CutoffSaturationError(RuntimeError):
    """Top Fock level acquired population; rerun with a larger cutoff."""


@dataclass(frozen=True)
class BasisDescriptor:
    kind: str                   # "collective" | "individual"
    n_atoms: int
    photon_cutoff: int

    @property
    def atom_dim(self) -> int:
        return self.n_atoms + 1 if self.kind == "collective" else 2 ** self.n_atoms

    @property
    def cavity_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dim(self) -> int:
        return self.atom_dim * self.cavity_dim


@dataclass
class DensityMatrix:
    data: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self):
        d = self.basis.dim
        if self.data.shape != (d, d):
            raise ValueError(f"density matrix shape {self.data.shape} != ({d}, {d})")


class Liouvillian:
    """Right-hand side of the master equation acting on density matrices.

    apply(rho) evaluates -i[H, rho] + sum_k rate_k D[L_k] rho with
    D[L] rho = L rho L^dag - (1/2){L^dag L, rho}; rates are the full Lindblad
    prefactors (2*kappa, 2*Gamma, 2*gamma).  to_matrix() materializes the
    superoperator on row-major vectorized density matrices for small
    dimensions.
    """

    def __init__(self, hamiltonian: np.ndarray,
                 collapse: List[Tuple[float, np.ndarray]],
                 basis: BasisDescriptor):
        self.hamiltonian = hamiltonian
        self.collapse = [(rate, op, op.conj().T @ op) for rate, op in collapse]
        self.basis = basis
        self.dim = hamiltonian.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for rate, op, opdag_op in self.collapse:
            out += rate * (op @ rho @ op.conj().T
                           - 0.5 * (opdag_op @ rho + rho @ opdag_op))
        return out

    def to_matrix(self) -> np.ndarray:
        if self.dim > _DENSE_SUPEROP_DIM:
            raise ValueError(
                f"dense superoperator would be {self.dim ** 2}x{self.dim ** 2}; "
                f"dimension {self.dim} exceeds guard {_DENSE_SUPEROP_DIM}")
        eye = np.eye(self.dim, dtype=complex)
        h = self.hamiltonian
        # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
        mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for rate, op, opdag_op in self.collapse:
            mat += rate * (np.kron(op, op.conj())
                           - 0.5 * (np.kron(opdag_op, eye) + np.kron(eye, opdag_op.T)))
        return mat


def _fock_annihilator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1).astype(complex)


def _embed(atom_op: np.ndarray, cavity_op: np.ndarray) -> np.ndarray:
    return np.kron(atom_op, cavity_op)


def _resolve_cutoff(params: SystemParams, cutoff) -> int:
    if cutoff is None:
        return params.n_atoms + 1
    if cutoff < params.n_atoms + 1:
        raise ValueError(f"photon cutoff {cutoff} below n_atoms + 1")
    return int(cutoff)


def collective_operators(basis: BasisDescriptor):
    """(S_z, S_minus, c) on the Dicke ladder x Fock space; index 0 of the
    ladder is the fully excited state m = +J."""
    n = basis.n_atoms
    j = 0.5 * n
    m = j - np.arange(n + 1)
    sz_at = np.diag(m).astype(complex)
    sm_at = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        sm_at[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] - 1))
    eye_at = np.eye(n + 1, dtype=complex)
    eye_c = np.eye(basis.cavity_dim, dtype=complex)
    a = _fock_annihilator(basis.photon_cutoff)
    return (_embed(sz_at, eye_c), _embed(sm_at, eye_c), _embed(eye_at, a))


def individual_operators(basis: BasisDescriptor):
    """(S_z, [sigma_minus^i], c) on the 2^N product x Fock space; per-atom
    basis |e> = index 0."""
    n = basis.n_atoms
    sz1 = np.diag([1.0, -1.0]).astype(complex)
    sm1 = np.array([[0, 0], [1, 0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    def chain(op, i):
        out = np.ones((1, 1), dtype=complex)
        for k in range(n):
            out = np.kron(out, op if k == i else eye2)
        return out

    eye_c = np.eye(basis.cavity_dim, dtype=complex)
    a = _fock_annihilator(basis.photon_cutoff)
    sz = sum(_embed(chain(sz1, i), eye_c) for i in range(n)) / 2.0
    sigma_minus = [_embed(chain(sm1, i), eye_c) for i in range(n)]
    eye_at = np.eye(basis.atom_dim, dtype=complex)
    return sz, sigma_minus, _embed(eye_at, a)


def _hamiltonian(params: SystemParams, sz, s_minus, c) -> np.ndarray:
    s_plus = s_minus.conj().T
    return (0.5 * params.omega_a * sz
            + params.omega_c * (c.conj().T @ c)
            + params.g * (s_plus @ c + s_minus @ c.conj().T))


def build_liouvillian_collective(params: SystemParams, cutoff: int | None = None) -> Liouvillian:
    """Master equation with the collective jump S_minus at rate 2*Gamma and
    the cavity jump c at rate 2*kappa."""
    if params.gamma_col is None:
        raise ValueError("collective oracle needs gamma_col")
    if params.n_atoms > MAX_COLLECTIVE_ATOMS:
        raise ValueError(f"collective oracle limited to N <= {MAX_COLLECTIVE_ATOMS}")
    basis = BasisDescriptor("collective", params.n_atoms, _resolve_cutoff(params, cutoff))
    sz, sm, c = collective_operators(basis)
    h = _hamiltonian(params, sz, sm, c)
    return Liouvillian(h, [(2.0 * params.kappa, c), (2.0 * params.gamma_col, sm)], basis)


def build_liouvillian_individual(params: SystemParams, cutoff: int | None = None) -> Liouvillian:
    """Master equation with N independent jumps sigma_minus^i at rate 2*gamma
    each, plus the cavity jump."""
    if params.gamma_ind is None:
        raise ValueError("individual oracle needs gamma_ind")
    if params.n_atoms > MAX_INDIVIDUAL_ATOMS:
        raise ValueError(f"individual oracle limited to N <= {MAX_INDIVIDUAL_ATOMS}")
    basis = BasisDescriptor("individual", params.n_atoms, _resolve_cutoff(params, cutoff))
    sz, sigma_minus, c = individual_operators(basis)
    h = _hamiltonian(params, sz, sum(sigma_minus), c)
    collapse = [(2.0 * params.kappa, c)]
    collapse += [(2.0 * params.gamma_ind, sm) for sm in sigma_minus]
    return Liouvillian(h, collapse, basis)


def build_liouvillian(params: SystemParams, cutoff: int | None = None) -> Liouvillian:
    if params.scheme == "collective":
        return build_liouvillian_collective(params, cutoff)
    return build_liouvillian_individual(params, cutoff)


def fully_excited_vacuum(basis: BasisDescriptor) -> DensityMatrix:
    """|e_1 ... e_N; 0><...|: index 0 in both factor orderings."""
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho, basis)


def coherent_cavity_state(basis: BasisDescriptor, amplitude: complex,
                          atoms_excited: bool = False) -> DensityMatrix:
    """Product of an atomic basis state with a truncated coherent cavity state."""
    n_ph = np.arange(basis.cavity_dim)
    from scipy.special import gammaln
    log_fact = gammaln(n_ph + 1.0)
    amps = np.exp(n_ph * np.log(abs(amplitude)) - 0.5 * log_fact
                  - 0.5 * abs(amplitude) ** 2 + 1j * n_ph * np.angle(amplitude)
                  ) if abs(amplitude) > 0 else (n_ph == 0).astype(complex)
    amps = amps / np.linalg.norm(amps)
    atom = np.zeros(basis.atom_dim, dtype=complex)
    atom[0 if atoms_excited else basis.atom_dim - 1] = 1.0
    psi = np.kron(atom, amps)
    return DensityMatrix(np.outer(psi, psi.conj()), basis)


def _observable_ops(liouv: Liouvillian):
    if liouv.basis.kind == "collective":
        sz, _, c = collective_operators(liouv.basis)
    else:
        sz, _, c = individual_operators(liouv.basis)
    return sz, c.conj().T @ c


def _top_level_population(rho: np.ndarray, basis: BasisDescriptor) -> float:
    block = rho.reshape(basis.atom_dim, basis.cavity_dim,
                        basis.atom_dim, basis.cavity_dim)
    top = basis.cavity_dim - 1
    return float(np.real(np.einsum("ii->i", block[:, top, :, top]).sum()))


def evolve_density_matrix(liouv: Liouvillian, rho0: DensityMatrix,
                          t_grid: np.ndarray) -> ObservableSeries:
    """<S_z>(t) and <c^dag c>(t) by deterministic integration of the
    vectorized master equation (rtol 1e-10); raises if the trace drifts
    beyond 1e-10 or the top Fock level saturates above 1e-6."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    d = liouv.dim

    def rhs(t, y):
        return liouv.apply(y.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), rho0.data.ravel().astype(complex),
                    t_eval=t_grid, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    rhos = sol.y.T.reshape(-1, d, d)

    traces = np.einsum("kii->k", rhos).real
    drift = float(np.max(np.abs(traces - 1.0)))
    if drift > TRACE_TOL:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_TOL}")
    top = max(_top_level_population(r, liouv.basis) for r in rhos)
    if top > SATURATION_TOL:
        raise CutoffSaturationError(
            f"top Fock level population {top:.2e} > {SATURATION_TOL}; "
            f"increase the photon cutoff beyond {liouv.basis.photon_cutoff}")

    sz_op, n_op = _observable_ops(liouv)
    sz = np.einsum("kij,ji->k", rhos, sz_op).real
    photon = np.einsum("kij,ji->k", rhos, n_op).real
    zeros = np.zeros_like(sz)
    return ObservableSeries(times=t_grid, sz_mean=sz, sz_sem=zeros,
                            photon_mean=photon, photon_sem=zeros,
                            n_atoms=liouv.basis.n_atoms)


def solve_oracle(params: SystemParams, num: NumericalParams) -> ObservableSeries:
    """Exact reference run from the fully excited state on the standard grid."""
    from .series import time_grid
    liouv = build_liouvillian(params, num.photon_cutoff)
    _, _, times = time_grid(num.dt, num.t_max)
    return evolve_density_matrix(liouv, fully_excited_vacuum(liouv.basis), times)
