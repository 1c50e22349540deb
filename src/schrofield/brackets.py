"""Poisson, non-canonical, and Dirac brackets as block tables over K.

Phase vectors are flattened in the fixed block order (phi | p | varphi | pi),
each block of length n. Under the discrete-delta convention delta -> I/dx,
a bracket is the matrix of its values on coordinate fields,

    J[i, j] = {z_i, z_j},

so the canonical pairs contribute +-I/dx blocks and distributional identities
become exact statements about finite matrices. Gradients pair with brackets
through plain partial derivatives: a functional F = dx * sum f(z) has
dF/dz = dx * (pointwise partials), and its flow is z_dot = J @ dF/dz, which
reproduces the functional-derivative convention without any further weights.

Every block of these matrices is a polynomial in the symmetric operator K
with scalar coefficients; in practice 0, c I or c K. A `BlockTable` stores
only those coefficients and K's stencil. Products and sums are polynomial
arithmetic on the coefficients, a matrix-vector product costs one stencil
product per power of K, and a block's largest entry comes from its band, so
nothing of size 4n x 4n is ever formed.
In K's eigenbasis each two-block sector splits into n 2x2 matrices, one per
eigenvalue kappa, which gives the sectors' singular values from the
spectrum.

The Dirac structure is J_D = J - J G^T C^{-1} G J with G the constraint
gradient table and C = G J G^T the constraint bracket table. The K terms of
C cancel, leaving [[0, I/dx], [-I/dx, 0]] for any potential; it is
invertible (the constraints are second class) and inverted as its 2x2
coefficient matrix.
"""

from dataclasses import dataclass

import numpy as np

from .field import FieldState, field_rhs
from .lattice import PERIODIC, Operator, apply, stencil_product
from .schrodinger import WaveFunction, schrodinger_rhs

BLOCKS = ("phi", "p", "varphi", "pi")
# Rank of each random quadratic form drawn by the Jacobi check.
JACOBI_RANK = 8


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
class BlockTable:
    """Block matrix whose (i, j) block of size n x n is sum_k coeffs[i, j, k] K^k.

    `op` supplies K's stencil and may be None when every block is a multiple
    of I. Trailing all-zero powers are dropped. Blocks are polynomials in a
    symmetric K, so each is symmetric and transposing a table only swaps its
    block indices.
    """

    coeffs: np.ndarray
    layout: PhaseLayout
    op: Operator | None = None

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[2] == 0:
            raise ValueError(f"coefficients must have shape (rows, cols, powers), got {c.shape}")
        nonzero = np.nonzero(np.any(c != 0.0, axis=(0, 1)))[0]
        c = c[:, :, : (nonzero[-1] + 1 if nonzero.size else 1)]
        if c.shape[2] > 1 and self.op is None:
            raise ValueError("a table with powers of K needs the operator")
        if self.op is not None and self.op.n != self.layout.n:
            raise ValueError(f"operator has n={self.op.n}, layout has n={self.layout.n}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return self.coeffs.shape[2] - 1

    @property
    def T(self):
        return BlockTable(np.swapaxes(self.coeffs, 0, 1), self.layout, self.op)

    def take(self, rows, cols):
        """The table of the blocks in the given block rows and columns."""
        return BlockTable(self.coeffs[np.ix_(rows, cols)], self.layout, self.op)

    def _combine(self, other, sign):
        a, b = self.coeffs, other.coeffs
        out = np.zeros(a.shape[:2] + (max(a.shape[2], b.shape[2]),))
        out[:, :, : a.shape[2]] = a
        out[:, :, : b.shape[2]] += sign * b
        return BlockTable(out, self.layout, _shared_op(self, other))

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __matmul__(self, other):
        """Block product with another table, or `matvec` with a vector."""
        if not isinstance(other, BlockTable):
            return self.matvec(other)
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0], b.shape[1], a.shape[2] + b.shape[2] - 1))
        for i in range(a.shape[2]):
            for j in range(b.shape[2]):
                out[:, :, i + j] += a[:, :, i] @ b[:, :, j]
        return BlockTable(out, self.layout, _shared_op(self, other))

    def matvec(self, v):
        """The product with a flattened vector of cols x n entries, by Horner's rule in K."""
        rows, cols, _ = self.coeffs.shape
        n = self.layout.n
        v = np.asarray(v, dtype=float)
        if v.shape != (cols * n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({cols * n},)")
        v = v.reshape(cols, n)
        out = self.coeffs[:, :, -1] @ v
        for k in range(self.degree - 1, -1, -1):
            out = stencil_product(self.op, out) + self.coeffs[:, :, k] @ v
        return out.reshape(rows * n)

    def max_abs(self):
        """Largest absolute entry, read off each block's band in O(n degree^2).

        The band of a block of degree d holds its entries (i, i + o) for
        |o| <= d, built by Horner's rule as band <- band K + c I: right
        multiplication by K moves each offset one step either way. On a
        periodic grid the column i + o wraps, and offsets equal modulo n
        name the same entry, so they are summed before taking the maximum.
        """
        n, d = self.layout.n, self.degree
        if d == 0:
            return float(np.max(np.abs(self.coeffs)))
        offsets = np.arange(-d, d + 1)
        cols = np.arange(n) + offsets[:, None]
        periodic = self.op.grid.boundary == PERIODIC
        if periodic:
            valid = np.ones(cols.shape, dtype=bool)
            diag_at = self.op.diagonal[cols % n]
        else:
            valid = (cols >= 0) & (cols < n)
            diag_at = self.op.diagonal[np.clip(cols, 0, n - 1)]
        band = np.zeros(self.coeffs.shape[:2] + cols.shape)
        band[:, :, d] = self.coeffs[:, :, d, None]
        for k in range(d - 1, -1, -1):
            shifted = band * diag_at
            shifted[:, :, 1:] += self.op.coupling * band[:, :, :-1]
            shifted[:, :, :-1] += self.op.coupling * band[:, :, 1:]
            shifted[:, :, d] += self.coeffs[:, :, k, None]
            band = np.where(valid, shifted, 0.0)
        if periodic:
            distinct, slot = np.unique(offsets % n, return_inverse=True)
            folded = np.zeros(band.shape[:2] + (distinct.size, n))
            np.add.at(folded, (slice(None), slice(None), slot), band)
            band = folded
        return float(np.max(np.abs(band)))


def _shared_op(a, b):
    if a.op is not None and b.op is not None and a.op is not b.op:
        raise ValueError("tables over different operators")
    if a.layout != b.layout:
        raise ValueError("tables over different layouts")
    return a.op if a.op is not None else b.op


class BracketTable(BlockTable):
    """Antisymmetric 4x4 table over BLOCKS: the structure J[i, j] = {z_i, z_j}."""

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs.shape[:2] != (len(BLOCKS), len(BLOCKS)):
            raise ValueError(f"a bracket has 4x4 blocks, got {self.coeffs.shape[:2]}")
        if (self + self.T).max_abs() > 1e-12 * max(self.max_abs(), 1.0):
            raise ValueError("bracket matrix must be antisymmetric")

    def sector(self, names):
        """The table of the named blocks, in the given order."""
        idx = [BLOCKS.index(nm) for nm in names]
        return self.take(idx, idx)


def _coefficients(entries, rows, cols):
    """rows x cols coefficient array from {(row name, col name): (c0, c1, ...)}."""
    c = np.zeros((len(rows), len(cols), max(len(v) for v in entries.values())))
    for (r, k), poly in entries.items():
        c[rows.index(r), cols.index(k), : len(poly)] = poly
    return c


def canonical_structure(layout):
    """Canonical Poisson structure: {phi, p} and {varphi, pi} pairs at I/dx."""
    e = 1.0 / layout.dx
    entries = {
        ("phi", "p"): (e,),
        ("p", "phi"): (-e,),
        ("varphi", "pi"): (e,),
        ("pi", "varphi"): (-e,),
    }
    return BracketTable(_coefficients(entries, BLOCKS, BLOCKS), layout)


def noncanonical_structure(op, layout):
    """The K-twisted structure on (varphi, p): {varphi, p} = -K/dx."""
    e = 1.0 / layout.dx
    sector = ("varphi", "p")
    entries = {("varphi", "p"): (0.0, -e), ("p", "varphi"): (0.0, e)}
    return BlockTable(_coefficients(entries, sector, sector), layout, op)


def constraint_gradient_matrix(op, layout):
    """Gradients of the constraints c1 = varphi + K phi and c2 = pi.

    Rows are plain partial derivatives of each constraint component with
    respect to the flattened phase vector: [K | 0 | I | 0] and [0 | 0 | 0 | I].
    """
    entries = {("c1", "phi"): (0.0, 1.0), ("c1", "varphi"): (1.0,), ("c2", "pi"): (1.0,)}
    return BlockTable(_coefficients(entries, ("c1", "c2"), BLOCKS), layout, op)


def _constant_inverse(c):
    """Inverse of a table whose blocks are multiples of I: its coefficient matrix inverted.

    Raises LinAlgError when c is singular, or depends on K, which for the
    constraint bracket would mean the constraints are not second class.
    """
    if c.degree:
        raise np.linalg.LinAlgError("constraint bracket matrix depends on K")
    return BlockTable(np.linalg.inv(c.coeffs[:, :, 0])[:, :, None], c.layout)


def dirac_structure(op, layout):
    """Dirac bracket J_D = J - J G^T C^{-1} G J, by block algebra on the tables.

    The constraints become Casimirs: J_D G^T = 0, the pi rows and columns
    vanish, the (phi, p) sector stays canonical, and the (varphi, p) sector
    reproduces the non-canonical structure -K/dx.
    """
    j = canonical_structure(layout)
    g = constraint_gradient_matrix(op, layout)
    jg = j @ g.T
    c = g @ jg
    jd = j - jg @ (_constant_inverse(c) @ (g @ j))
    return BracketTable(jd.coeffs, layout, op)


def _check(name, max_diff, reference_scale, tol):
    """One report entry; violation is max|diff| relative to max(1, max|reference|)."""
    violation = max_diff / max(1.0, reference_scale)
    return {
        "name": name,
        "violation": violation,
        "tolerance": tol,
        "passed": bool(violation <= tol),
    }


def verify_dirac_relations(op, layout, tol=1e-10, dirac=None):
    """Check every block identity of the Dirac structure; returns a report.

    A pre-assembled (possibly perturbed) table can be passed through `dirac`
    so that detector sanity can be exercised. Each identity is checked on
    the blocks it names, with largest entries read off their bands.
    """
    jd = dirac_structure(op, layout) if dirac is None else dirac
    eye_dx = BlockTable([[[1.0 / layout.dx]]], layout)
    k_dx = BlockTable([[[0.0, 1.0 / layout.dx]]], layout, op)
    eye_scale = 1.0 / layout.dx
    k_scale = k_dx.max_abs()
    every = range(len(BLOCKS))
    pi = [BLOCKS.index("pi")]

    def blk(a, b):
        return jd.take([BLOCKS.index(a)], [BLOCKS.index(b)])

    def zero(a, b):
        return _check(f"dirac_{a}_{b}_zero", blk(a, b).max_abs(), 0.0, tol)

    g = constraint_gradient_matrix(op, layout)
    field = ("phi", "p")
    wave = ("varphi", "p")
    pi_blocks = max(jd.take(pi, every).max_abs(), jd.take(every, pi).max_abs())
    return [
        _check("dirac_antisymmetry", (jd + jd.T).max_abs(), jd.max_abs(), tol),
        _check("dirac_phi_p_is_delta", (blk("phi", "p") - eye_dx).max_abs(), eye_scale, tol),
        _check("dirac_varphi_p_is_minus_K", (blk("varphi", "p") + k_dx).max_abs(), k_scale, tol),
        zero("phi", "phi"),
        zero("p", "p"),
        zero("varphi", "varphi"),
        zero("phi", "varphi"),
        _check("dirac_pi_casimir", pi_blocks, eye_scale, tol),
        _check("dirac_constraint_casimir", (jd @ g.T).max_abs(), k_scale, tol),
        _check(
            "dirac_field_sector_canonical",
            (jd.sector(field) - canonical_structure(layout).sector(field)).max_abs(),
            eye_scale,
            tol,
        ),
        _check(
            "dirac_wave_sector_noncanonical",
            (jd.sector(wave) - noncanonical_structure(op, layout)).max_abs(),
            k_scale,
            tol,
        ),
    ]


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
        # The roundoff of grad . flow scales with |grad| |flow|, and |flow| with ||J'||.
        h_scale = max(1.0, float(np.linalg.norm(grad) * np.linalg.norm(flow)))
        worst_cons = max(worst_cons, abs(float(np.dot(grad, flow))) / h_scale)
    return [
        _check("generalized_flow_matches_schrodinger", worst_flow, 0.0, tol),
        _check("generalized_energy_conserved", worst_cons, 0.0, tol),
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
        _check("dirac_flow_wave_sector", worst_wave, 0.0, tol),
        _check("dirac_flow_field_sector", worst_field, 0.0, tol),
    ]


def _jacobi_terms(bracket, rng):
    """The three nested-bracket terms of one random sample of the cyclic sum.

    Draws three symmetric forms x = U S U^T of rank r = JACOBI_RANK, each
    from a standard normal dim x r matrix U and a standard normal r x r
    matrix B with S = 0.5 (B + B^T), then a standard normal point z; the
    quadratic functionals are f_x = z.x.z / 2. The gradient of {f_x, f_y}
    at z is x J y z - y J x z, and the term pairs it with J w z. A form is
    applied as U (S (U^T v)) and J as the table's O(n) matvec, so a sample
    costs O(dim r) time and memory; neither x nor any triple product is
    formed.

    With f_x = J x z the cyclic sum of the terms is a sum of pairs
    f_w.x.f_y - f_y.x.f_w, which cancel for symmetric x whatever the vectors
    f are. The check therefore measures the roundoff of these products and
    cannot flag a fault in the bracket.
    """
    dim = bracket.layout.dim
    forms = []
    for _ in range(3):
        u = rng.standard_normal((dim, JACOBI_RANK))
        b = rng.standard_normal((JACOBI_RANK, JACOBI_RANK))
        forms.append((u, 0.5 * (b + b.T)))
    z = rng.standard_normal(dim)

    def form(i, v):
        """x_i v for x_i = U S U^T."""
        u, s = forms[i]
        return u @ (s @ (u.T @ v))

    flows = [bracket @ form(i, z) for i in range(3)]  # J x z, the flow of f_x at z
    terms = []
    for x, y, w in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        grad_xy = form(x, flows[y]) - form(y, flows[x])  # gradient of {f_x, f_y}
        terms.append(float(grad_xy @ flows[w]))
    return terms


def jacobi_cyclic_residual(bracket, rng=None, samples=3):
    """Relative cyclic residual of the Jacobi identity on quadratic functionals.

    The residual is the cancellation left over relative to the sizes of the
    six nested-bracket terms, worst over the samples. The quadratic forms
    are random symmetric matrices of rank JACOBI_RANK (see _jacobi_terms),
    so each sample costs O(n) time and memory. The cyclic sum cancels
    exactly for any symmetric forms and any bracket, so the residual is
    pure roundoff: the check cannot flag a fault in the bracket.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for _ in range(int(samples)):
        terms = _jacobi_terms(bracket, rng)
        total = abs(sum(terms))
        scale = max(sum(abs(t) for t in terms), 1e-300)
        worst = max(worst, total / scale)
    return worst


def sector_smallest_singular_values(bracket, spectrum):
    """Smallest singular value of each dynamical-sector block of the bracket.

    Every block is a polynomial in K, so in K's eigenbasis a two-block
    sector splits into n 2x2 matrices, its coefficient polynomials at each
    eigenvalue kappa of `spectrum`; their singular values are the sector's.
    """
    if bracket.op is not None and spectrum.operator is not bracket.op:
        raise ValueError("spectrum is not the spectrum of the bracket's operator")
    kappa = spectrum.eigenvalues[:, None, None]
    out = {}
    for key, names in (("phi_p", ("phi", "p")), ("varphi_p", ("varphi", "p"))):
        coeffs = bracket.sector(names).coeffs
        blocks = 0.0
        for k in range(coeffs.shape[2] - 1, -1, -1):  # Horner's rule, one 2x2 per kappa
            blocks = blocks * kappa + coeffs[:, :, k]
        out[key] = float(np.min(np.linalg.svd(blocks, compute_uv=False)))
    return out
