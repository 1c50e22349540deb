"""Poisson, non-canonical, and Dirac brackets as explicit matrices.

Phase vectors are flattened in the fixed block order (phi | p | varphi | pi),
each block of length n. Under the discrete-delta convention delta -> I/dx,
a bracket is the matrix of its values on coordinate fields,

    J[i, j] = {z_i, z_j},

so the canonical pairs contribute +-I/dx blocks and distributional identities
become exact statements about finite matrices. Gradients pair with brackets
through plain partial derivatives: a functional F = dx * sum f(z) has
dF/dz = dx * (pointwise partials), and its flow is z_dot = J @ dF/dz, which
reproduces the functional-derivative convention without any further weights.

The Dirac structure is J_D = J - J G^T C^{-1} G J with G the constraint
gradient matrix and C = G J G^T the constraint bracket matrix. C is
invertible here (the constraints are second class) with the exact block
inverse [[0, -dx I], [dx I, 0]]; a generic linear-solve path exists purely
for regression against the block form.
"""

from dataclasses import dataclass

import numpy as np

from .field import FieldState, field_rhs
from .lattice import apply
from .schrodinger import WaveFunction, schrodinger_rhs

BLOCKS = ("phi", "p", "varphi", "pi")


@dataclass(frozen=True)
class PhaseLayout:
    """Block layout of flattened phase vectors and the shared dx convention."""

    n: int
    dx: float

    @property
    def dim(self):
        return 4 * self.n

    def block(self, name):
        """Slice of the named block inside a 4n phase vector."""
        i = BLOCKS.index(name)
        return slice(i * self.n, (i + 1) * self.n)

    def pack(self, phi, p, varphi, pi):
        return np.concatenate(
            [np.asarray(a, dtype=float) for a in (phi, p, varphi, pi)]
        )

    def unpack(self, z):
        z = np.asarray(z, dtype=float)
        return tuple(z[self.block(name)] for name in BLOCKS)

    def gradient_of_integral(self, *pointwise_partials):
        """Gradient of F = dx * sum f(z): dx times the pointwise partials."""
        return self.dx * np.concatenate(
            [np.asarray(a, dtype=float) for a in pointwise_partials]
        )


@dataclass(frozen=True, eq=False)
class BracketMatrix:
    """Antisymmetric structure matrix J with J[i, j] = {z_i, z_j}."""

    matrix: np.ndarray
    layout: PhaseLayout

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if float(np.max(np.abs(m + m.T))) > 1e-12 * max(scale, 1.0):
            raise ValueError("bracket matrix must be antisymmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def sector(self, names):
        """Sub-matrix over the named blocks, in the given order."""
        idx = np.concatenate(
            [np.arange(self.layout.n) + BLOCKS.index(nm) * self.layout.n for nm in names]
        )
        return self.matrix[np.ix_(idx, idx)]


def canonical_structure(layout):
    """Canonical Poisson structure: {phi, p} and {varphi, pi} pairs at I/dx."""
    n = layout.n
    j = np.zeros((layout.dim, layout.dim))
    eye = np.eye(n) / layout.dx
    j[layout.block("phi"), layout.block("p")] = eye
    j[layout.block("p"), layout.block("phi")] = -eye
    j[layout.block("varphi"), layout.block("pi")] = eye
    j[layout.block("pi"), layout.block("varphi")] = -eye
    return BracketMatrix(matrix=j, layout=layout)


def noncanonical_structure(op, layout):
    """The K-twisted structure on (varphi, p): {varphi, p} = -K/dx."""
    n = layout.n
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -op.matrix / layout.dx
    j[n:, :n] = op.matrix / layout.dx
    return j


def constraint_gradient_matrix(op, layout):
    """Gradients of the constraints c1 = varphi + K phi and c2 = pi.

    Rows are plain partial derivatives of each constraint component with
    respect to the flattened phase vector: [K | 0 | I | 0] and [0 | 0 | 0 | I].
    """
    n = layout.n
    g = np.zeros((2 * n, layout.dim))
    g[:n, layout.block("phi")] = op.matrix
    g[:n, layout.block("varphi")] = np.eye(n)
    g[n:, layout.block("pi")] = np.eye(n)
    return g


def constraint_bracket_matrix(op, layout):
    """Mutual brackets of the constraints, C = G J G^T.

    Comes out as [[0, I/dx], [-I/dx, 0]] independently of the potential: the
    K-contributions cancel exactly. Its invertibility certifies that the
    constraint pair is second class.
    """
    j = canonical_structure(layout).matrix
    g = constraint_gradient_matrix(op, layout)
    c = g @ j @ g.T
    if np.linalg.matrix_rank(c) < c.shape[0]:  # cannot occur; defensive
        raise np.linalg.LinAlgError("constraint bracket matrix is singular")
    return c


def _constraint_bracket_inverse(layout):
    """Exact block inverse of the constraint bracket matrix."""
    n = layout.n
    inv = np.zeros((2 * n, 2 * n))
    inv[:n, n:] = -layout.dx * np.eye(n)
    inv[n:, :n] = layout.dx * np.eye(n)
    return inv


def dirac_structure(op, layout):
    """Dirac bracket matrix J_D = J - J G^T C^{-1} G J.

    Built with the exact block inverse of C. The constraints become Casimirs:
    J_D G^T = 0, the pi rows and columns vanish, the (phi, p) sector stays
    canonical, and the (varphi, p) sector reproduces the non-canonical
    structure -K/dx.
    """
    j = canonical_structure(layout).matrix
    g = constraint_gradient_matrix(op, layout)
    c_inv = _constraint_bracket_inverse(layout)
    gj = g @ j
    jd = j - (j @ g.T) @ (c_inv @ gj)
    return BracketMatrix(matrix=jd, layout=layout)


def dirac_structure_generic(op, layout):
    """Same as dirac_structure but inverting C by a generic linear solve."""
    j = canonical_structure(layout).matrix
    g = constraint_gradient_matrix(op, layout)
    c = constraint_bracket_matrix(op, layout)
    gj = g @ j
    jd = j - (j @ g.T) @ np.linalg.solve(c, gj)
    return BracketMatrix(matrix=jd, layout=layout)


def _check(name, diff, reference, tol):
    """One report entry; violation is relative to max(1, |reference|)."""
    scale = max(1.0, float(np.max(np.abs(reference))) if np.size(reference) else 0.0)
    violation = float(np.max(np.abs(diff))) / scale if np.size(diff) else 0.0
    return {
        "name": name,
        "violation": violation,
        "tolerance": tol,
        "passed": bool(violation <= tol),
    }


def verify_dirac_relations(op, layout, tol=1e-10, dirac=None):
    """Check every block identity of the Dirac structure; returns a report.

    A pre-assembled (possibly perturbed) matrix can be passed through `dirac`
    so that detector sanity can be exercised.
    """
    jd = dirac_structure(op, layout) if dirac is None else dirac
    m = jd.matrix
    n = layout.n
    eye_dx = np.eye(n) / layout.dx
    k_dx = op.matrix / layout.dx

    def blk(a, b):
        return m[layout.block(a), layout.block(b)]

    g = constraint_gradient_matrix(op, layout)
    pi_rows = m[layout.block("pi"), :]
    pi_cols = m[:, layout.block("pi")]

    checks = [
        _check("dirac_antisymmetry", m + m.T, m, tol),
        _check("dirac_phi_p_is_delta", blk("phi", "p") - eye_dx, eye_dx, tol),
        _check("dirac_varphi_p_is_minus_K", blk("varphi", "p") + k_dx, k_dx, tol),
        _check("dirac_phi_phi_zero", blk("phi", "phi"), 0.0, tol),
        _check("dirac_p_p_zero", blk("p", "p"), 0.0, tol),
        _check("dirac_varphi_varphi_zero", blk("varphi", "varphi"), 0.0, tol),
        _check("dirac_phi_varphi_zero", blk("phi", "varphi"), 0.0, tol),
        _check(
            "dirac_pi_casimir",
            np.concatenate([pi_rows.ravel(), pi_cols.ravel()]),
            eye_dx,
            tol,
        ),
        _check("dirac_constraint_casimir", m @ g.T, k_dx, tol),
        _check(
            "dirac_field_sector_canonical",
            jd.sector(("phi", "p")) - canonical_structure(layout).sector(("phi", "p")),
            eye_dx,
            tol,
        ),
        _check(
            "dirac_wave_sector_noncanonical",
            jd.sector(("varphi", "p")) - noncanonical_structure(op, layout),
            k_dx,
            tol,
        ),
    ]
    return checks


def generalized_hamiltonian_check(op, layout, tol=1e-12, rng=None, batch=5):
    """Verify the non-canonical form of the wave dynamics on random states.

    The flow J' grad(H') with H' the norm functional must reproduce the
    two-field right-hand side, and antisymmetry makes H' exactly conserved
    along that flow.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = layout.n
    jp = noncanonical_structure(op, layout)
    worst_flow = 0.0
    worst_cons = 0.0
    for _ in range(int(batch)):
        varphi = rng.standard_normal(n)
        p = rng.standard_normal(n)
        grad = layout.gradient_of_integral(varphi / op.hbar, p / op.hbar)
        flow = jp @ grad
        dre, dim = schrodinger_rhs(op, WaveFunction(re=varphi, im=p))
        ref = np.concatenate([dre, dim])
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_flow = max(worst_flow, float(np.max(np.abs(flow - ref))) / scale)
        h_scale = max(1.0, float(np.dot(grad, grad)))
        worst_cons = max(worst_cons, abs(float(np.dot(grad, flow))) / h_scale)
    return [
        {
            "name": "generalized_flow_matches_schrodinger",
            "violation": worst_flow,
            "tolerance": tol,
            "passed": bool(worst_flow <= tol),
        },
        {
            "name": "generalized_energy_conserved",
            "violation": worst_cons,
            "tolerance": tol,
            "passed": bool(worst_cons <= tol),
        },
    ]


def dirac_flow_check(op, layout, tol=1e-12, rng=None, batch=5, dirac=None):
    """Verify that both dynamical-sector Dirac flows generate the dynamics.

    With the Hamiltonian written in (varphi, p) the flow must be the wave
    system; written in (phi, p) it must be the field system. States are
    random and taken on shell.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    jd = dirac_structure(op, layout) if dirac is None else dirac
    wave_sector = jd.sector(("varphi", "p"))
    field_sector = jd.sector(("phi", "p"))
    n = layout.n
    worst_wave = 0.0
    worst_field = 0.0
    for _ in range(int(batch)):
        phi = rng.standard_normal(n)
        p = rng.standard_normal(n)
        varphi = -apply(op, phi)

        grad_wave = layout.gradient_of_integral(varphi / op.hbar, p / op.hbar)
        flow_wave = wave_sector @ grad_wave
        dre, dim = schrodinger_rhs(op, WaveFunction(re=varphi, im=p))
        ref = np.concatenate([dre, dim])
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_wave = max(worst_wave, float(np.max(np.abs(flow_wave - ref))) / scale)

        grad_field = layout.gradient_of_integral(
            apply(op, apply(op, phi)) / op.hbar, p / op.hbar
        )
        flow_field = field_sector @ grad_field
        dphi, dp = field_rhs(op, FieldState(phi=phi, p=p))
        ref = np.concatenate([dphi, dp])
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_field = max(worst_field, float(np.max(np.abs(flow_field - ref))) / scale)
    return [
        {
            "name": "dirac_flow_wave_sector",
            "violation": worst_wave,
            "tolerance": tol,
            "passed": bool(worst_wave <= tol),
        },
        {
            "name": "dirac_flow_field_sector",
            "violation": worst_field,
            "tolerance": tol,
            "passed": bool(worst_field <= tol),
        },
    ]


def jacobi_cyclic_residual(bracket, rng=None, samples=3):
    """Relative cyclic residual of the Jacobi identity on quadratic functionals.

    For a constant structure matrix the cyclic sum vanishes identically, so
    this measures pure roundoff: the residual is the cancellation left over
    relative to the sizes of the six nested-bracket terms.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    j = bracket.matrix
    dim = j.shape[0]
    worst = 0.0
    for _ in range(int(samples)):
        mats = []
        for _ in range(3):
            a = rng.standard_normal((dim, dim))
            mats.append(0.5 * (a + a.T))
        a, b, c = mats
        z = rng.standard_normal(dim)
        terms = []
        for x, y, w in ((a, b, c), (b, c, a), (c, a, b)):
            grad_xy = (x @ j @ y - y @ j @ x) @ z  # gradient of {f_x, f_y}
            terms.append(float(grad_xy @ j @ (w @ z)))
        total = abs(sum(terms))
        scale = max(sum(abs(t) for t in terms), 1e-300)
        worst = max(worst, total / scale)
    return worst


def sector_smallest_singular_values(bracket):
    """Smallest singular value of each dynamical-sector block of the bracket."""
    return {
        "phi_p": float(np.linalg.svd(bracket.sector(("phi", "p")), compute_uv=False)[-1]),
        "varphi_p": float(
            np.linalg.svd(bracket.sector(("varphi", "p")), compute_uv=False)[-1]
        ),
    }
