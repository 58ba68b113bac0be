"""Exact dense and sparse linear algebra over Q(zeta_N).

Conventions fixed here and used everywhere else in the package:

* matrices act on column vectors, so ``M: V -> W`` has shape (dim W, dim V)
  and composition is left multiplication;
* tensor legs flatten left-major: leg pair (i, j) with dims (d1, d2) maps to
  index ``i*d2 + j``;
* subspaces are stored by a basis matrix in reduced column echelon form, so
  equal subspaces have equal basis matrices.
"""

from __future__ import annotations

from .scalar import Cyclo


class LinAlgError(ValueError):
    """Structural error: shape mismatch, singular matrix where regular needed."""


class Matrix:
    """Dense matrix of Cyclo entries, row-major storage, treated as immutable."""

    __slots__ = ("rows", "cols", "order", "data")

    def __init__(self, rows: int, cols: int, data, order: int):
        if len(data) != rows:
            raise LinAlgError("row count mismatch")
        for r in data:
            if len(r) != cols:
                raise LinAlgError("column count mismatch")
        self.rows = rows
        self.cols = cols
        self.order = order
        self.data = data

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int, order: int) -> "Matrix":
        z = Cyclo.zero(order)
        return Matrix(rows, cols, [[z] * cols for _ in range(rows)], order)

    @staticmethod
    def identity(n: int, order: int) -> "Matrix":
        z, e = Cyclo.zero(order), Cyclo.one(order)
        return Matrix(n, n, [[e if i == j else z for j in range(n)] for i in range(n)], order)

    @staticmethod
    def from_rows(rows_list, order: int) -> "Matrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return Matrix(rows, cols, [list(r) for r in rows_list], order)

    @staticmethod
    def from_cols(cols_list, order: int, ambient: int | None = None) -> "Matrix":
        cols = len(cols_list)
        rows = len(cols_list[0]) if cols else (ambient or 0)
        data = [[cols_list[j][i] for j in range(cols)] for i in range(rows)]
        return Matrix(rows, cols, data, order)

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(self.data[i][j] == other.data[i][j]
                    for i in range(self.rows) for j in range(self.cols))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def entry(self, i: int, j: int) -> Cyclo:
        return self.data[i][j]

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.order,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return Matrix(
            self.rows,
            self.cols,
            [[self.data[i][j] + other.data[i][j] for j in range(self.cols)]
             for i in range(self.rows)],
            self.order,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(Cyclo.from_rational(-1, self.order))

    def scaled(self, c: Cyclo) -> "Matrix":
        return Matrix(
            self.rows,
            self.cols,
            [[self.data[i][j] * c for j in range(self.cols)] for i in range(self.rows)],
            self.order,
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LinAlgError(
                "shape mismatch in product: %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        zero = Cyclo.zero(self.order)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            srow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = srow[k]
                if a.is_zero():
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return Matrix(self.rows, other.cols, out, self.order)

    def apply(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise LinAlgError("vector length %d, expected %d" % (len(vec), self.cols))
        zero = Cyclo.zero(self.order)
        out = [zero] * self.rows
        for j, v in enumerate(vec):
            if v.is_zero():
                continue
            for i in range(self.rows):
                a = self.data[i][j]
                if not a.is_zero():
                    out[i] = out[i] + a * v
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        return Matrix(
            self.rows,
            self.cols + other.cols,
            [self.data[i] + other.data[i] for i in range(self.rows)],
            self.order,
        )


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left-major flattening (i, j) -> i*dim2 + j."""
    order = a.order
    zero = Cyclo.zero(order)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [[zero] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            c = a.data[i][j]
            if c.is_zero():
                continue
            for k in range(b.rows):
                base = out[i * b.rows + k]
                boff = j * b.cols
                brow = b.data[k]
                for l in range(b.cols):
                    if not brow[l].is_zero():
                        base[boff + l] = c * brow[l]
    return Matrix(rows, cols, out, order)


def identity_residual(m: Matrix) -> int:
    """Number of nonzero entries of m - I for a square m; 0 iff m is the identity."""
    if m.rows != m.cols:
        raise LinAlgError("identity residual of a %dx%d matrix" % (m.rows, m.cols))
    zero, one = Cyclo.zero(m.order), Cyclo.one(m.order)
    return sum(1 for i, row in enumerate(m.data) for j, e in enumerate(row)
               if e != (one if i == j else zero))


# -- sparse elimination engine ------------------------------------------------
#
# Rows are dicts {column: Cyclo}; the same engine backs kernel, solve and rank
# so pivoting stays deterministic everywhere.


def reduce_row(row: dict, pivots: dict) -> dict:
    """Eliminate every stored pivot column from ``row`` in place."""
    changed = True
    while changed:
        changed = False
        for c in sorted(row):
            if c in pivots:
                coeff = row.pop(c)
                if coeff.is_zero():
                    continue
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    cur = row.get(cc)
                    nv = (cur - coeff * vv) if cur is not None else -(coeff * vv)
                    if nv.is_zero():
                        row.pop(cc, None)
                    else:
                        row[cc] = nv
                changed = True
                break
    return row


def _sparse_rref(rows: list[dict], ncols: int, order: int):
    """Reduced row echelon form of sparse rows.

    Returns (pivots, reduced) where pivots maps pivot column -> row dict with
    that column normalised to 1 and eliminated from all other stored rows.
    Pivot choice: shortest row first, then lowest column; deterministic.
    """
    pending = [dict(r) for r in rows if r]
    pivots: dict[int, dict] = {}
    pending.sort(key=lambda r: (len(r), min(r)))
    for row in pending:
        row = reduce_row(row, pivots)
        row = {c: v for c, v in row.items() if not v.is_zero()}
        if not row:
            continue
        pcol = min(row)
        inv = row[pcol].inverse()
        row = {c: v * inv for c, v in row.items()}
        # eliminate the new pivot from existing pivot rows
        for pc, prow in pivots.items():
            coeff = prow.get(pcol)
            if coeff is not None and not coeff.is_zero():
                for cc, vv in row.items():
                    if cc == pcol:
                        continue
                    cur = prow.get(cc)
                    nv = (cur - coeff * vv) if cur is not None else -(coeff * vv)
                    if nv.is_zero():
                        prow.pop(cc, None)
                    else:
                        prow[cc] = nv
                prow.pop(pcol, None)
        pivots[pcol] = row
    return pivots


def sparse_kernel_basis(rows: list[dict], ncols: int, order: int) -> list[list[Cyclo]]:
    """Basis of {v : row . v = 0 for all rows}, canonical (reduced column echelon)."""
    pivots = _sparse_rref(rows, ncols, order)
    zero, one = Cyclo.zero(order), Cyclo.one(order)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff is not None:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def sparse_solve(rows: list[dict], rhs: list[list[Cyclo]], ncols: int, order: int,
                 require_unique: bool = False):
    """Solve the sparse system for one or more right-hand sides.

    ``rhs`` is a list of dense right-hand-side vectors (one value per row, in
    the order the rows were given).  Returns a list of solution vectors, or
    raises LinAlgError if inconsistent (or underdetermined with
    require_unique).
    """
    nrhs = len(rhs)
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        for k in range(nrhs):
            v = rhs[k][i]
            if not v.is_zero():
                row[ncols + k] = v
        aug.append(row)
    pivots = _sparse_rref(aug, ncols + nrhs, order)
    zero = Cyclo.zero(order)
    for pc in pivots:
        if pc >= ncols:
            raise LinAlgError("inconsistent linear system")
    if require_unique:
        for c in range(ncols):
            if c not in pivots:
                raise LinAlgError("system is underdetermined (free column %d)" % c)
    sols = []
    for k in range(nrhs):
        vec = [zero] * ncols
        for pc, prow in pivots.items():
            v = prow.get(ncols + k)
            if v is not None:
                vec[pc] = v
        sols.append(vec)
    return sols


def sparse_cols(m: Matrix) -> list[list]:
    """The nonzero entries of each column as (row, value) pairs."""
    return [[(i, m.data[i][j]) for i in range(m.rows) if not m.data[i][j].is_zero()]
            for j in range(m.cols)]


def _dense_to_sparse_rows(m: Matrix) -> list[dict]:
    rows = []
    for i in range(m.rows):
        row = {j: m.data[i][j] for j in range(m.cols) if not m.data[i][j].is_zero()}
        rows.append(row)
    return rows


# -- dense operations built on the engine ----------------------------------


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space {v : Mv = 0}."""
    basis = sparse_kernel_basis(_dense_to_sparse_rows(m), m.cols, m.order)
    return Subspace.from_vectors(basis, m.cols, m.order)


def rank(m: Matrix) -> int:
    pivots = _sparse_rref(_dense_to_sparse_rows(m), m.cols, m.order)
    return len(pivots)


def solve(m: Matrix, rhs: list, require_unique: bool = False) -> list:
    """One solution of M x = rhs; raises LinAlgError when inconsistent."""
    sols = sparse_solve(_dense_to_sparse_rows(m), [rhs], m.cols, m.order,
                        require_unique=require_unique)
    x = sols[0]
    check = m.apply(x)
    if any((a - b) for a, b in zip(check, rhs)):
        raise LinAlgError("inconsistent linear system")
    return x


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise LinAlgError("only square matrices are invertible")
    n = m.rows
    zero, one = Cyclo.zero(m.order), Cyclo.one(m.order)
    rhs = [[one if i == k else zero for i in range(n)] for k in range(n)]
    try:
        sols = sparse_solve(_dense_to_sparse_rows(m), rhs, n, m.order, require_unique=True)
    except LinAlgError as exc:
        raise LinAlgError("matrix is singular") from exc
    inv = Matrix.from_cols(sols, m.order, ambient=n)
    if m * inv != Matrix.identity(n, m.order) or inv * m != Matrix.identity(n, m.order):
        raise AssertionError("inverse verification failed")
    return inv


def column_echelonize(m: Matrix) -> Matrix:
    """Unique reduced-column-echelon basis matrix for the column span of m."""
    # row-reduce the transpose, read surviving rows back as columns
    pivots = _sparse_rref(_dense_to_sparse_rows(m.transpose()), m.rows, m.order)
    zero = Cyclo.zero(m.order)
    cols = []
    for pc in sorted(pivots):
        prow = pivots[pc]
        col = [zero] * m.rows
        for c, v in prow.items():
            col[c] = v
        cols.append(col)
    return Matrix.from_cols(cols, m.order, ambient=m.rows)


class Subspace:
    """Subspace of an ambient coordinate space, canonical column basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix, canonical: bool = True):
        if basis.rows != ambient_dim:
            raise LinAlgError("basis rows do not match ambient dimension")
        if not canonical:
            basis = column_echelonize(basis)
        self.ambient_dim = ambient_dim
        self.basis = basis

    @staticmethod
    def from_vectors(vectors: list[list], ambient_dim: int, order: int) -> "Subspace":
        m = Matrix.from_cols(vectors, order, ambient=ambient_dim)
        if m.cols == 0:
            m = Matrix.zero(ambient_dim, 0, order)
        return Subspace(ambient_dim, column_echelonize(m))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)

    def contains(self, vec: list) -> bool:
        try:
            solve(self.basis, vec)
            return True
        except LinAlgError:
            return False

    def vector(self, j: int) -> list:
        return self.basis.col(j)

    def vectors(self) -> list[list]:
        return [self.basis.col(j) for j in range(self.dim)]


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """U cap V, via the kernel of [basis_U | -basis_V]."""
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError(
            "ambient mismatch: %d vs %d" % (u.ambient_dim, v.ambient_dim)
        )
    order = u.basis.order
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.ambient_dim, Matrix.zero(u.ambient_dim, 0, order))
    stacked = u.basis.hstack(v.basis.scaled(Cyclo.from_rational(-1, order)))
    ker = kernel(stacked)
    vectors = []
    for j in range(ker.dim):
        coeffs = ker.vector(j)[: u.dim]
        vectors.append(u.basis.apply(coeffs))
    return Subspace.from_vectors(vectors, u.ambient_dim, order)


def quotient(ambient_dim: int, w: Subspace) -> tuple[Matrix, Matrix]:
    """Projection and section for ambient/W.

    projection: ambient -> quotient with kernel exactly W; section is a right
    inverse, so projection * section = identity on the quotient.
    """
    if w.ambient_dim != ambient_dim:
        raise LinAlgError("subspace does not live in the ambient space")
    order = w.basis.order
    zero, one = Cyclo.zero(order), Cyclo.one(order)
    # pivot rows of the reduced column echelon basis
    pivot_rows = []
    for j in range(w.dim):
        col = w.basis.col(j)
        for i in range(ambient_dim):
            if not col[i].is_zero():
                pivot_rows.append(i)
                break
    pivot_set = set(pivot_rows)
    comp_rows = [i for i in range(ambient_dim) if i not in pivot_set]
    qdim = len(comp_rows)
    # projection: subtract pivot-row multiples of basis columns, keep comp rows
    proj = Matrix.zero(qdim, ambient_dim, order).data
    for k, i in enumerate(comp_rows):
        proj[k][i] = one
    for j, prow in enumerate(pivot_rows):
        col = w.basis.col(j)
        for k, i in enumerate(comp_rows):
            if not col[i].is_zero():
                proj[k][prow] = proj[k][prow] - col[i]
    projection = Matrix(qdim, ambient_dim, proj, order)
    sec = Matrix.zero(ambient_dim, qdim, order).data
    for k, i in enumerate(comp_rows):
        sec[i][k] = one
    section = Matrix(ambient_dim, qdim, sec, order)
    return projection, section
