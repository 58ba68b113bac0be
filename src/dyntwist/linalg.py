"""Exact linear algebra over Q(zeta_N): one row-sparse matrix type, one echelon
engine, one Kronecker-sum kernel.

Conventions fixed here and used everywhere else in the package:

* a vector is a dict {index: Cyclo} holding only its nonzero entries, the
  same form as a matrix row, an echelon row and an algebra element; there
  is no dense vector type;
* matrices act on column vectors, so ``M: V -> W`` has shape (dim W, dim V)
  and composition is left multiplication;
* a ``Matrix`` stores row i as such a dict {column: Cyclo} and never stores
  a zero; other modules read it through ``entry``, ``row``, ``col`` and
  ``nonzeros`` only;
* a matrix flattens row-major, entry (i, j) to index ``i*cols + j``, and
  tensor legs flatten left-major: leg pair (i, j) with dims (d1, d2) maps to
  index ``i*d2 + j``;
* every sum of scaled Kronecker products, and so every element acting on a
  tensor product of modules and every linear combination of matrices, is
  built by ``kron_sum``;
* every product a (id_d (x) b) is taken by ``mul_id_kron``, which never
  forms id_d (x) b, and ``kron_id_mul`` takes (b (x) id_d) a the same way;
  associativity, one a against every right multiplication b, folds a once
  by the same ``_reshape``;
* every matrix product and every elimination step normalises each entry
  once: a product sums the integer polynomial products of an entry's terms
  over one cleared denominator (``_sum_rows``), a row of a that meets one
  nonzero row of b scales that row, and an elimination step forms
  cur - c v in one step (``scalar.sub_mul``);
* a product a b whose right factor holds at most one entry per row (an
  identity, a permutation, a column selector, a monomial matrix) is a
  relabelling: each entry x of a at column k moves to the column j of
  row k's entry y, as x y, entries that land on one column are summed, and
  a sum that cancels is dropped (``_relabelled``);
* subspaces are stored by a basis matrix in reduced column echelon form, so
  equal subspaces have equal basis matrices;
* a batch of vectors is one ``Matrix``, a vector per column (``apply`` takes
  one vector); coordinates in a canonical basis are read off its pivots, a
  batch at once, and certified by one product, which counts the columns
  outside the span (``pivot_coords``); ``solve`` is left for the matrices
  that are not canonical;
* every set of words (the words in algebra generators, an operator algebra,
  a generating set of a subalgebra) is grown breadth-first from a unit and
  a list of candidates by ``generated_words``, so its generators and words
  come out in one fixed order;
* growing words stops when they fill their space: a full span cannot grow.
"""

from __future__ import annotations

from collections import defaultdict

from .scalar import Cyclo, ScalarError, cleared, euler_phi, packed, sub_mul, unpacker


class LinAlgError(ValueError):
    """Structural error: shape mismatch, singular matrix where regular needed."""


def _drop_zeros(row: dict) -> dict:
    for c in [c for c, v in row.items() if v.is_zero()]:
        del row[c]
    return row


def _sum_rows(arows: list[dict], brows: list[dict], cols: int, order: int) -> list[dict]:
    """The rows a b for the rows ``arows`` of a, on cleared integer numerators.

    The denominators are cleared once per row of a and once for all of b,
    every numerator is packed into one integer (``scalar.packed``), so each
    term costs one integer product and one sum, and each output entry is
    reduced modulo Phi_N and normalised once.
    """
    if not arows:
        return []
    aclear = [cleared(r.values()) for r in arows]
    bden, bbits = cleared(v for r in brows for v in r.values())
    phi = euler_phi(order)
    width = 0
    if phi > 1:
        # every coefficient of an entry's sum of polynomial products is below
        # cols * phi * max|a| * max|b| in absolute value
        width = max(bits for _, bits in aclear) + bbits + (cols * phi).bit_length() + 1
    read = unpacker(order, width)
    bp = [packed(r, bden, width) for r in brows]
    out = []
    for arow, (aden, _) in zip(arows, aclear):
        acc: dict = {}
        get = acc.get
        for k, x in packed(arow, aden, width).items():
            for j, y in bp[k].items():
                acc[j] = get(j, 0) + x * y
        den = aden * bden
        row = {}
        for j, x in acc.items():
            if x:
                v = read(x, den)
                if not v.is_zero():
                    row[j] = v
        out.append(row)
    return out


def _relabelled(arows: list[dict], brows: list[dict]) -> list[dict]:
    """The rows of a b, for the rows ``arows`` of a and a b whose rows hold at most one entry.

    Entry x of a at column k moves to the column j of row k's entry y, as
    x y; entries that land on one column are summed, and a sum that cancels
    is dropped (x y != 0 in a field, so only sums can vanish).
    """
    moves = [next(iter(r.items())) if r else None for r in brows]
    out = []
    for arow in arows:
        row: dict = {}
        summed = False
        for k, x in arow.items():
            move = moves[k]
            if move is None:
                continue
            j, y = move
            p = x if y.is_one() else y if x.is_one() else x * y
            cur = row.get(j)
            if cur is None:
                row[j] = p
            else:
                row[j] = cur + p
                summed = True
        out.append(_drop_zeros(row) if summed else row)
    return out


class Matrix:
    """Row-sparse matrix of Cyclo entries, treated as immutable.

    Row i is a dict {column: value} holding only the nonzero entries, so
    equality, ``is_zero`` and residual counts compare the dicts directly.
    """

    __slots__ = ("rows", "cols", "order", "_rows")

    def __init__(self, rows: int, cols: int, row_dicts: list, order: int):
        """Take ownership of one {column: value} dict per row; zeros are dropped."""
        if len(row_dicts) != rows:
            raise LinAlgError("row count mismatch")
        for r in row_dicts:
            if not isinstance(r, dict):
                raise LinAlgError("a row must be a dict {column: value}")
            if r and (min(r) < 0 or max(r) >= cols):
                raise LinAlgError("column index out of range")
            _drop_zeros(r)
        self.rows = rows
        self.cols = cols
        self.order = order
        self._rows = row_dicts

    @staticmethod
    def _trusted(rows: int, cols: int, row_dicts: list, order: int) -> "Matrix":
        # rows built here hold only nonzero entries in range
        m = object.__new__(Matrix)
        m.rows, m.cols, m.order, m._rows = rows, cols, order, row_dicts
        return m

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int, order: int) -> "Matrix":
        return Matrix._trusted(rows, cols, [{} for _ in range(rows)], order)

    @staticmethod
    def identity(n: int, order: int) -> "Matrix":
        one = Cyclo.one(order)
        return Matrix._trusted(n, n, [{i: one} for i in range(n)], order)

    @staticmethod
    def from_rows(rows_list, order: int) -> "Matrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        out = []
        for r in rows_list:
            if len(r) != cols:
                raise LinAlgError("column count mismatch")
            out.append({j: v for j, v in enumerate(r) if not v.is_zero()})
        return Matrix._trusted(rows, cols, out, order)

    @staticmethod
    def from_cols(cols_list, rows: int, order: int) -> "Matrix":
        """The matrix with the given {row: value} dicts as columns."""
        return Matrix(len(cols_list), rows, [dict(c) for c in cols_list], order).transpose()

    # -- access -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def entry(self, i: int, j: int) -> Cyclo:
        v = self._rows[i].get(j)
        return Cyclo.zero(self.order) if v is None else v

    def row(self, i: int) -> dict:
        """The nonzero entries of row i as {column: value}; do not modify."""
        return self._rows[i]

    def col(self, j: int) -> dict:
        """The nonzero entries of column j as {row: value}."""
        return {i: r[j] for i, r in enumerate(self._rows) if j in r}

    def nonzeros(self):
        """(i, j, value) for every nonzero entry, rows in order, columns ascending."""
        for i, r in enumerate(self._rows):
            for j in sorted(r):
                yield i, j, r[j]

    # -- arithmetic -------------------------------------------------------

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._trusted(self.cols, self.rows, out, self.order)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, True)

    def _merge(self, other: "Matrix", subtract: bool) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for j, v in rb.items():
                cur = row.get(j)
                if cur is None:
                    row[j] = -v if subtract else v
                    continue
                nv = cur - v if subtract else cur + v
                if nv.is_zero():
                    del row[j]
                else:
                    row[j] = nv
            out.append(row)
        return Matrix._trusted(self.rows, self.cols, out, self.order)

    def scaled(self, c: Cyclo) -> "Matrix":
        if c.is_zero():
            return Matrix.zero(self.rows, self.cols, self.order)
        return Matrix._trusted(self.rows, self.cols,
                               [{j: v * c for j, v in r.items()} for r in self._rows],
                               self.order)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LinAlgError(
                "shape mismatch in product: %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        if self.order != other.order:
            raise ScalarError("cyclotomic order mismatch in product: %d vs %d"
                              % (self.order, other.order))
        brows = other._rows
        if all(len(r) < 2 for r in brows):
            return Matrix._trusted(self.rows, other.cols, _relabelled(self._rows, brows),
                                   self.order)
        # the entries of each row of a that meet a nonzero row of b
        live = [[k for k in r if brows[k]] for r in self._rows]
        sums = iter(_sum_rows([r for r, ks in zip(self._rows, live) if len(ks) > 1],
                              brows, self.cols, self.order))
        out = []
        for arow, ks in zip(self._rows, live):
            if len(ks) > 1:
                out.append(next(sums))
            elif ks:
                # one entry x scales one row of b, and x y != 0 in a field
                x, brow = arow[ks[0]], brows[ks[0]]
                out.append(dict(brow) if x.is_one()
                           else {j: x if y.is_one() else x * y for j, y in brow.items()})
            else:
                out.append({})
        return Matrix._trusted(self.rows, other.cols, out, self.order)

    def apply(self, vec: dict) -> dict:
        """M v for a sparse vector v; the result holds no zeros."""
        if vec and (min(vec) < 0 or max(vec) >= self.cols):
            raise LinAlgError("vector index out of range for %d columns" % self.cols)
        out = {}
        for i, r in enumerate(self._rows):
            acc = None
            for j, a in r.items():
                v = vec.get(j)
                if v is not None:
                    acc = a * v if acc is None else acc + a * v
            if acc is not None and not acc.is_zero():
                out[i] = acc
        return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left-major flattening (i, j) -> i*dim2 + j."""
    out = []
    for ra in a._rows:
        for rb in b._rows:
            row = {}
            for j, x in ra.items():
                off = j * b.cols
                unit = x.is_one()
                for l, y in rb.items():
                    # a factor equal to 1 copies the other
                    row[off + l] = y if unit else x if y.is_one() else x * y
            out.append(row)
    return Matrix._trusted(a.rows * b.rows, a.cols * b.cols, out, a.order)


def mul_id_kron(a: Matrix, d: int, b: Matrix) -> Matrix:
    """a (id_d (x) b), without forming id_d (x) b.

    Entry (r, i*b.rows + k) of a is entry (r*d + i, k) of a reshaped to
    (rows*d) x b.rows; that times b, reshaped back to rows x (d*b.cols), is
    the product.
    """
    if a.cols != d * b.rows:
        raise LinAlgError("shape mismatch in product: %dx%d by id_%d (x) %dx%d"
                          % (a.rows, a.cols, d, b.rows, b.cols))
    folded = _reshape(a, a.rows * d, b.rows) * b
    return _reshape(folded, a.rows, d * b.cols)


def kron_id_mul(b: Matrix, d: int, a: Matrix) -> Matrix:
    """(b (x) id_d) a, without forming b (x) id_d.

    Entry (k*d + i, j) of a is entry (k, i*a.cols + j) of a reshaped to
    b.cols x (d*a.cols); b times that, reshaped back to (b.rows*d) x a.cols,
    is the product.
    """
    if a.rows != b.cols * d:
        raise LinAlgError("shape mismatch in product: %dx%d (x) id_%d by %dx%d"
                          % (b.rows, b.cols, d, a.rows, a.cols))
    return _reshape(b * _reshape(a, b.cols, d * a.cols), b.rows * d, a.cols)


def _reshape(m: Matrix, rows: int, cols: int) -> Matrix:
    """m with its entries laid out row-major again as a rows x cols matrix."""
    out = [{} for _ in range(rows)]
    for i, r in enumerate(m._rows):
        base = i * m.cols
        for j, v in r.items():
            ii, jj = divmod(base + j, cols)
            out[ii][jj] = v
    return Matrix._trusted(rows, cols, out, m.order)


def kron_sum(terms, rows: int, cols: int, order: int) -> Matrix:
    """sum c * (a_1 (x) ... (x) a_k) over the (c, a_1, ..., a_k) in ``terms``, in one pass.

    Every term needs k >= 1 factors whose shapes multiply to rows x cols;
    legs flatten left-major, and k = 1 is a linear combination.
    """
    out = [{} for _ in range(rows)]
    for c, *factors in terms:
        r = cl = 1
        for a in factors:
            r, cl = r * a.rows, cl * a.cols
        if (r, cl) != (rows, cols):
            raise LinAlgError("shape mismatch in Kronecker sum")
        *heads, last = factors
        # the nonzero rows of c * (a_1 (x) ... (x) a_{k-1}), by flattened index
        head = [(0, {0: c})]
        for a in heads:
            head = [(i * a.rows + k, {j * a.cols + l: x * y for j, x in rh.items()
                                      for l, y in ra.items()})
                    for i, rh in head for k, ra in enumerate(a._rows) if ra]
        for i, rh in head:
            for k, rb in enumerate(last._rows):
                if not rb:
                    continue
                row = out[i * last.rows + k]
                for j, x in rh.items():
                    off = j * last.cols
                    unit = x.is_one()
                    for l, y in rb.items():
                        key = off + l
                        p = y if unit else x if y.is_one() else x * y
                        cur = row.get(key)
                        row[key] = p if cur is None else cur + p
    for row in out:
        _drop_zeros(row)
    return Matrix._trusted(rows, cols, out, order)


def differing_keys(a: dict, b: dict) -> int:
    """Number of keys where the sparse vectors a and b differ; 0 iff a == b."""
    return sum(1 for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def differing_entries(a: Matrix, b: Matrix) -> int:
    """Number of positions (i, j) where a and b differ; 0 iff a == b."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise LinAlgError("shape mismatch: %dx%d vs %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return sum(differing_keys(ra, rb) for ra, rb in zip(a._rows, b._rows))


def differing_columns(a: Matrix, b: Matrix) -> set:
    """The columns j where a and b differ; empty iff a == b."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise LinAlgError("shape mismatch: %dx%d vs %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return set().union(*({j for j in ra.keys() | rb.keys() if ra.get(j) != rb.get(j)}
                         for ra, rb in zip(a._rows, b._rows) if ra != rb))


def flatten(m: Matrix) -> dict:
    """The entries of m as one vector, (i, j) -> i*cols + j."""
    cols = m.cols
    return {i * cols + j: v for i, r in enumerate(m._rows) for j, v in r.items()}


def unflatten(vec: dict, rows: int, cols: int, order: int) -> Matrix:
    """Inverse of ``flatten`` for a rows x cols matrix."""
    out = [{} for _ in range(rows)]
    for idx, v in vec.items():
        i, j = divmod(idx, cols)
        out[i][j] = v
    return Matrix(rows, cols, out, order)


def identity_residual(m: Matrix) -> int:
    """Number of nonzero entries of m - I for a square m; 0 iff m is the identity."""
    if m.rows != m.cols:
        raise LinAlgError("identity residual of a %dx%d matrix" % (m.rows, m.cols))
    return differing_entries(m, Matrix.identity(m.rows, m.order))


# -- the echelon engine ---------------------------------------------------------
#
# Rows are dicts {column: Cyclo}.  One incremental echelon object backs
# kernel, solve, rank, spans and minimal polynomials, so pivoting is
# deterministic everywhere.  Its column index holds, for every column c,
# the set of pivots p with c in pivots[p] (possibly empty), exactly: a new
# pivot column is eliminated from the rows it names, and no stored row is
# scanned for it.


def _eliminate(row: dict, c: int, pivot_row: dict, index=None, key=None) -> None:
    """row -= row[c] * pivot_row, in place, for a pivot row with 1 at column c.

    For a stored row, ``index`` is the column index and ``key`` the row's
    pivot: each entry the step adds or cancels is added to or dropped from it.
    """
    coeff = row.pop(c)
    for cc, vv in pivot_row.items():
        if cc == c:
            continue
        cur = row.get(cc)
        nv = sub_mul(cur, coeff, vv)
        if nv.is_zero():
            row.pop(cc, None)
            if index is not None:
                index[cc].discard(key)
        else:
            if cur is None and index is not None:
                index[cc].add(key)
            row[cc] = nv


class Echelon:
    """Incremental reduced row echelon form of sparse rows.

    Each stored row is normalised to 1 at its pivot, its lowest column, and
    every pivot column is eliminated from all other stored rows.  ``add``
    and ``_eliminate`` keep the column index exact; the rows it names under
    a new pivot column are updated in any order, since each update touches
    only its own row.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self._holders: defaultdict[int, set] = defaultdict(set)

    def reduce(self, row: dict) -> dict:
        """Eliminate every pivot column from ``row`` in place; returns it."""
        pivots = self.pivots
        # stored rows hold no other pivot column, so one pass suffices
        for c in [c for c in row if c in pivots]:
            _eliminate(row, c, pivots[c])
        return _drop_zeros(row)

    def add(self, row: dict) -> dict:
        """Reduce ``row`` (consumed) and store what is left, normalised.

        Returns what was left before normalising: empty exactly when the row
        already lay in the span.
        """
        rest = self.reduce(row)
        if not rest:
            return rest
        pcol = min(rest)
        inv = rest[pcol].inverse()
        new = {c: v * inv for c, v in rest.items()}
        holders, pivots = self._holders, self.pivots
        for p in holders.pop(pcol, ()):
            _eliminate(pivots[p], pcol, new, holders, p)
        for c in new:
            holders[c].add(pcol)
        pivots[pcol] = new
        return rest


def generated_words(unit, candidates, multiply, dim: int, key=None) -> tuple[list, list]:
    """(generators, words): the candidates that enlarge the span, and the words they grow.

    The words start at ``unit``.  Each candidate in turn is kept as a word and
    joins the generators when its row is outside the span of the words so
    far; the words are then closed under right multiplication by every
    generator, ``multiply(word, generator)``, breadth-first, before the next
    candidate is taken.  So every candidate ends up in the span.  The row of
    an item is a copy of it, or ``key(item)``, which must return a fresh dict.
    The rows live in a space of dimension ``dim``: once ``dim`` words are kept
    the span is full, so nothing more is multiplied or taken.
    """
    span, gens, words, applied = Echelon(), [], [], []

    def grows(item) -> bool:
        if span.add(dict(item) if key is None else key(item)):
            words.append(item)
            applied.append(0)  # the number of generators it has been multiplied by
            return True
        return False

    grows(unit)
    for c in candidates:
        if len(words) < dim and grows(c):
            gens.append(c)
            i = 0
            while i < len(words) < dim:
                if applied[i] == len(gens):
                    i += 1
                else:
                    applied[i] += 1
                    grows(multiply(words[i], gens[applied[i] - 1]))
    return gens, words


def _sparse_rref(rows: list[dict], ncols: int, order: int):
    """Reduced row echelon form of sparse rows (consumed).

    Returns the pivots: pivot column -> row dict with that column normalised
    to 1 and eliminated from all other stored rows.  Pivot choice: shortest
    row first, then lowest column; deterministic.
    """
    pending = [r for r in rows if r]
    pending.sort(key=lambda r: (len(r), min(r)))
    ech = Echelon()
    for row in pending:
        ech.add(row)
    return ech.pivots


def sparse_kernel_basis(rows: list[dict], ncols: int, order: int) -> list[dict]:
    """Basis of {v : row . v = 0 for all rows (consumed)}, canonical (reduced column echelon)."""
    pivots = _sparse_rref(rows, ncols, order)
    one = Cyclo.one(order)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: one}
        for pc, prow in pivots.items():
            coeff = prow.get(f)
            if coeff is not None:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def sparse_solve(rows: list[dict], rhs: list[dict], ncols: int, order: int,
                 require_unique: bool = False) -> list[dict]:
    """Solve the sparse system (rows consumed) for one or more right-hand sides.

    Each right-hand side is a sparse vector {row: value}, rows numbered in
    the order they were given.  Returns one solution vector per right-hand
    side, or raises LinAlgError if inconsistent (or underdetermined with
    require_unique).
    """
    for k, b in enumerate(rhs):
        for i, v in b.items():
            rows[i][ncols + k] = v
    pivots = _sparse_rref(rows, ncols + len(rhs), order)
    for pc in pivots:
        if pc >= ncols:
            raise LinAlgError("inconsistent linear system")
    if require_unique:
        for c in range(ncols):
            if c not in pivots:
                raise LinAlgError("system is underdetermined (free column %d)" % c)
    sols = [{} for _ in rhs]
    for pc, prow in pivots.items():
        for k, sol in enumerate(sols):
            v = prow.get(ncols + k)
            if v is not None:
                sol[pc] = v
    return sols


def sparse_cols(m: Matrix) -> list[dict]:
    """The nonzero entries of each column as {row: value}."""
    return m.transpose()._rows


def _dense_to_sparse_rows(m: Matrix) -> list[dict]:
    """Fresh copies of the row dicts, for the engine to consume."""
    return [dict(r) for r in m._rows]


# -- matrix operations built on the engine ----------------------------------


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space {v : Mv = 0}."""
    basis = sparse_kernel_basis(_dense_to_sparse_rows(m), m.cols, m.order)
    return Subspace.from_vectors(basis, m.cols, m.order)


def rank(m: Matrix) -> int:
    pivots = _sparse_rref(_dense_to_sparse_rows(m), m.cols, m.order)
    return len(pivots)


def solve(m: Matrix, rhs: dict, require_unique: bool = False) -> dict:
    """One solution of M x = rhs; raises LinAlgError when inconsistent."""
    rhs = {i: v for i, v in rhs.items() if not v.is_zero()}
    x = sparse_solve(_dense_to_sparse_rows(m), [rhs], m.cols, m.order,
                     require_unique=require_unique)[0]
    if m.apply(x) != rhs:
        raise LinAlgError("inconsistent linear system")
    return x


def pivot_coords(basis: Matrix, pivots: list[int], vectors: Matrix) -> tuple[Matrix, int]:
    """The coordinates of the columns of ``vectors`` in the columns of a canonical basis.

    Column j of ``basis`` is 1 at row ``pivots[j]``, where every other column
    is 0, so the coordinates are the rows of ``vectors`` at the pivots.  One
    product ``basis`` times them certifies every column: a column where it
    differs from ``vectors`` lies outside the span, and its coordinates are
    dropped.  Returns (coordinates, number of such columns).
    """
    rows = vectors._rows
    coords = [dict(rows[p]) for p in pivots]
    misses = differing_columns(basis * Matrix._trusted(len(pivots), vectors.cols, coords,
                                                       vectors.order), vectors)
    if misses:
        coords = [{j: v for j, v in r.items() if j not in misses} for r in coords]
    return Matrix._trusted(len(pivots), vectors.cols, coords, vectors.order), len(misses)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise LinAlgError("only square matrices are invertible")
    n = m.rows
    one = Cyclo.one(m.order)
    try:
        sols = sparse_solve(_dense_to_sparse_rows(m), [{k: one} for k in range(n)], n,
                            m.order, require_unique=True)
    except LinAlgError as exc:
        raise LinAlgError("matrix is singular") from exc
    inv = Matrix.from_cols(sols, n, m.order)
    # for square matrices over a field, m * inv = I already gives inv * m = I
    if m * inv != Matrix.identity(n, m.order):
        raise AssertionError("inverse verification failed")
    return inv


class Subspace:
    """Subspace of an ambient coordinate space, canonical column basis."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        """``basis`` must already be in reduced column echelon form."""
        if basis.rows != ambient_dim:
            raise LinAlgError("basis rows do not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = None

    @staticmethod
    def from_vectors(vectors: list[dict], ambient_dim: int, order: int) -> "Subspace":
        """The span of the vectors: their reduced row echelon rows, read back as columns."""
        rows = [_drop_zeros(dict(v)) for v in vectors]
        if any(r and (min(r) < 0 or max(r) >= ambient_dim) for r in rows):
            raise LinAlgError("column index out of range")
        pivots = _sparse_rref(rows, ambient_dim, order)
        basis_rows = [pivots[pc] for pc in sorted(pivots)]
        return Subspace(ambient_dim, Matrix._trusted(len(basis_rows), ambient_dim, basis_rows,
                                                     order).transpose())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)

    @property
    def pivots(self) -> list[int]:
        """The pivot row of each basis column."""
        if self._pivots is None:
            # the pivot of a reduced column echelon column is its first row
            self._pivots = [min(col) for col in self.vectors()]
        return self._pivots

    def vector(self, j: int) -> dict:
        return self.basis.col(j)

    def vectors(self) -> list[dict]:
        return sparse_cols(self.basis)


def balanced_relations(pairs, d1: int, d2: int, order: int) -> Subspace:
    """The relations of a balanced tensor product X (x)_A Y, dim X = d1, dim Y = d2.

    The span of the columns of R (x) 1 - 1 (x) L over the pairs (R, L), where
    R acts on X from the right and L on Y from the left by the same element
    of A: the vectors x.a (x) y - x (x) a.y.  Its basis is canonical, so the
    quotient by it does not depend on the order of the pairs.
    """
    one = Cyclo.one(order)
    id1, id2 = Matrix.identity(d1, order), Matrix.identity(d2, order)
    vectors = []
    for r, l in pairs:
        vectors += sparse_cols(kron_sum([(one, r, id2), (-one, id1, l)], d1 * d2, d1 * d2, order))
    return Subspace.from_vectors(vectors, d1 * d2, order)


def quotient(ambient_dim: int, w: Subspace) -> tuple[Matrix, Matrix]:
    """Projection and section for ambient/W.

    projection: ambient -> quotient with kernel exactly W; section is a right
    inverse, so projection * section = identity on the quotient.
    """
    if w.ambient_dim != ambient_dim:
        raise LinAlgError("subspace does not live in the ambient space")
    order = w.basis.order
    one = Cyclo.one(order)
    basis_cols = sparse_cols(w.basis)
    # pivot rows of the reduced column echelon basis
    pivot_rows = [min(col) for col in basis_cols if col]
    pivot_set = set(pivot_rows)
    comp_rows = [i for i in range(ambient_dim) if i not in pivot_set]
    comp_index = {i: k for k, i in enumerate(comp_rows)}
    qdim = len(comp_rows)
    # projection: subtract pivot-row multiples of basis columns, keep comp rows
    proj = [{i: one} for i in comp_rows]
    for col, prow in zip(basis_cols, pivot_rows):
        for i, v in col.items():
            k = comp_index.get(i)
            if k is not None:
                proj[k][prow] = -v
    projection = Matrix._trusted(qdim, ambient_dim, proj, order)
    sec = [{} for _ in range(ambient_dim)]
    for k, i in enumerate(comp_rows):
        sec[i][k] = one
    section = Matrix._trusted(ambient_dim, qdim, sec, order)
    return projection, section
