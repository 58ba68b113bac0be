"""Yan-Zhu stabilizers in two independent realizations.

The Yan-Zhu form St_K(V,W), the x in H* (x) Hom(V,W) whose image under the
injective map L is a K-intertwiner H* (x) V -> H* (x) W, is one kernel over
H* (x) Hom(V,W) and serves as a dimension oracle; the pipeline consumes the
realized form Hom_K(H (x) V, W) with right-translation H-action, which
satisfies the same adjunction and dimension formula.  The Galois transport to
Hom_A(H, Hom(V,W)) is a reshape whose content is the pair of module
constraints it exchanges; both directions are verified exactly.  Currying and
composition of stabilizer elements are matrix products with Kronecker
products (``kron``, and ``mul_id_kron`` for a product with id (x) g, which it
never forms).
"""

from __future__ import annotations


from .comod import ComoduleAlgebraData, GaloisData, galois_gamma
from .hopf import StructureError, add_into
from .linalg import (LinAlgError, Matrix, flatten, kron, kron_sum, mul_id_kron, rank,
                     sparse_cols, sparse_kernel_basis, unflatten)
from .rep import (ModuleRep, SubHopfEmbedding, hom_space, intertwiner_basis, regular_module,
                  tensor_action, translation_action)
from .report import CheckReport
from .scalar import Cyclo


class StabilizerSpace:
    def __init__(self, realization: str, basis: list[Matrix],
                 h_action: list[Matrix] | None, report: CheckReport):
        self.realization = realization    # "YanZhu" | "HomRealized"
        self.basis = basis
        self.h_action = h_action          # per H-basis matrix on coordinates (HomRealized)
        self.report = report

    @property
    def dim(self) -> int:
        return len(self.basis)


def _k_action_on_dual_tensor(k: ComoduleAlgebraData, v: ModuleRep,
                             indices: list[int]) -> list[Matrix]:
    """K-action on H* (x) V of the basis elements ``indices`` of K:
    k.(gamma (x) u) = (k_(-1) harpoon gamma) (x) k_(0) u."""
    from .hopf import harpoon_matrix
    h = k.over
    one = Cyclo.one(k.order)
    harpoons = [harpoon_matrix(h, {hi: one}) for hi in range(h.dim)]
    dim = h.dim * v.dim
    return [kron_sum(((c, harpoons[hi], v.action[kk]) for (hi, kk), c in k.coaction[ki].items()),
                     dim, dim, k.order) for ki in indices]


def yan_zhu_stabilizer(k: ComoduleAlgebraData, v: ModuleRep, w: ModuleRep) -> StabilizerSpace:
    """The Yan-Zhu realization: the x in H* (x) Hom(V, W) with L(x) S_g = T_g L(x).

    L sends gamma_a (x) E_ts to kron(Lambda_a, E_ts), Lambda_a the left
    multiplication by gamma_a, and is injective; S_g and T_g are the actions
    of a generator g of K on H* (x) V and H* (x) W.  Each equation entry is an
    entry of Lambda_a times one of S_g or T_g.  The basis is the canonical
    kernel basis in the coordinates a*w*v + t*v + s, each vector re-checked.
    """
    h = k.over
    order = k.order
    report = CheckReport("Yan-Zhu stabilizer")
    if v.dim == 0 or w.dim == 0:
        return StabilizerSpace("YanZhu", [], None, report)
    lmats = [_dual_left_mult(h, a) for a in range(h.dim)]
    # span{kron(Lambda_a, E_ts)} = span{Lambda_a} (x) Hom(V, W)
    bad = (h.dim - rank(Matrix(h.dim, h.dim * h.dim, [flatten(m) for m in lmats], order))
           ) * w.dim * v.dim
    report.add("L is injective", bad == 0, bad)
    gens = k.alg.generating_set()
    wv, hv = w.dim * v.dim, h.dim * v.dim
    rows = []
    for src, tgt in zip(_k_action_on_dual_tensor(k, v, gens), _k_action_on_dual_tensor(k, w, gens)):
        # entry (r, col) of L(x) S - T L(x) at r*h*v + col, as {a*w*v + t*v + s: coefficient}
        eqs: dict = {}
        for a, lam in enumerate(lmats):
            # (L(x) S)[(i, t), col] = sum over a, b, s of Lambda_a[i][b] x_ats S[(b, s), col]
            for i in range(h.dim):
                for b, c in lam.row(i).items():
                    for s in range(v.dim):
                        for col, val in src.row(b * v.dim + s).items():
                            cv = c * val
                            for t in range(w.dim):
                                add_into(eqs.setdefault((i * w.dim + t) * hv + col, {}),
                                         a * wv + t * v.dim + s, cv)
        for r in range(h.dim * w.dim):
            # (T L(x))[r, (j, s)] = sum over i, t, a of T[r, (i, t)] Lambda_a[i][j] x_ats
            for col, val in tgt.row(r).items():
                i, t = divmod(col, w.dim)
                for a, lam in enumerate(lmats):
                    for j, c in lam.row(i).items():
                        cv = -(val * c)
                        for s in range(v.dim):
                            add_into(eqs.setdefault(r * hv + j * v.dim + s, {}),
                                     a * wv + t * v.dim + s, cv)
        rows += [eq for eq in eqs.values() if eq]
    # equal equations repeat across positions and generators; keep one of each
    rows = list({frozenset(eq.items()): eq for eq in rows}.values())
    equations = Matrix(len(rows), h.dim * wv, rows, order)
    kernel = sparse_kernel_basis([dict(eq) for eq in rows], h.dim * wv, order)
    if any(equations.apply(vec) for vec in kernel):
        raise LinAlgError("a kernel vector fails the stabilizer equations")
    return StabilizerSpace("YanZhu", [unflatten(vec, h.dim, wv, order) for vec in kernel],
                           None, report)


def _dual_left_mult(h, a: int) -> Matrix:
    """Left multiplication by the a-th dual basis vector in H*."""
    rows = [{b: c for (i, b), c in h.comult[k].items() if i == a} for k in range(h.dim)]
    return Matrix(h.dim, h.dim, rows, h.order)


def stab_hom_realized(k: ComoduleAlgebraData, v: ModuleRep, w: ModuleRep) -> StabilizerSpace:
    """Hom_K(H (x) V, W) with H acting by (h.f)(t (x) u) = f(th (x) u)."""
    h = k.over
    order = k.order
    report = CheckReport("realized stabilizer")
    h_reg = regular_module(h.alg, name="H_reg")
    basis = hom_space(tensor_action(k, h_reg, v), w).basis
    idv = Matrix.identity(v.dim, order)
    h_action = translation_action(basis, [kron(h.alg.right_mult_matrix({i: Cyclo.one(order)}),
                                               idv) for i in range(h.dim)])
    if basis:
        mod = ModuleRep(h.alg, len(basis), h_action, name="St")
        report.merge(mod.verify(), prefix="H-action: ")
    return StabilizerSpace("HomRealized", basis, h_action, report)


def curry_map(k: ComoduleAlgebraData, x: ModuleRep, v: ModuleRep, f: Matrix) -> list[Matrix]:
    """curry(f)(x)(h (x) u) = f(h.x (x) u) for each basis vector of X.

    curry(f)(x_i) = f . (c_i (x) 1), with c_i: H -> X the orbit map h -> h.x_i.
    """
    order = k.order
    x_cols = [sparse_cols(a) for a in x.action]
    idv = Matrix.identity(v.dim, order)
    return [f * kron(Matrix.from_cols([cols[xi] for cols in x_cols], x.dim, order), idv)
            for xi in range(x.dim)]


def uncurry_map(k: ComoduleAlgebraData, x: ModuleRep, v: ModuleRep, w: ModuleRep,
                curried: list[Matrix]) -> Matrix:
    """uncurry(F)(x (x) u) = F(x)(1 (x) u)."""
    h = k.over
    order = k.order
    data = [{} for _ in range(w.dim)]
    for xi in range(x.dim):
        for t, col, val in curried[xi].nonzeros():
            hi, u = divmod(col, v.dim)
            c = h.alg.unit.get(hi)
            if c is not None:
                add_into(data[t], xi * v.dim + u, c * val)
    return Matrix(w.dim, x.dim * v.dim, data, order)


def galois_twisted_action(g: GaloisData, v: ModuleRep, w: ModuleRep, a_index: int) -> Matrix:
    """(a.T)(u) = a^[1] . T(a^[2] . u) on flattened Hom(V, W), row-major."""
    order = v.order
    k = g.comodule
    gamma = galois_gamma(g, {a_index: Cyclo.one(order)})
    dim = w.dim * v.dim
    return kron_sum(((c, w.action[key // k.dim], v.action[key % k.dim].transpose())
                     for key, c in gamma.items()), dim, dim, order)


def stab_galois_transport(g: GaloisData, embed: SubHopfEmbedding,
                          v: ModuleRep, w: ModuleRep,
                          stab: StabilizerSpace) -> dict:
    """Transport u -> u-bar, u-bar(h)(x) = u(h (x) x), onto Hom_A(H, Hom_R(V,W)).

    Verified: each transported basis element is A-linear for the
    gamma-twisted action, the map is injective onto the intertwiner space of
    the target (equal dimensions), and H-linearity is the same
    right-translation on both sides.
    """
    h = embed.big
    a = embed.small
    order = v.order
    report = CheckReport("stabilizer Galois transport")
    if not g.bijective:
        raise StructureError("transport requires a Galois extension")
    # target: Hom_A(H, Hom(V,W)): maps T: H -> Hom(V, W), flattened target side
    gens = a.alg.generating_set()
    src_mats = [h.alg.left_mult_matrix(embed.embed_elem({ai: Cyclo.one(order)}))
                for ai in gens]
    # the twisted action per generator; the A-basis need not be group-like
    tgt_mats = [galois_twisted_action(g, v, w, ai) for ai in gens]
    target_basis = intertwiner_basis(src_mats, tgt_mats,
                                     w.dim * v.dim, h.dim, order)
    ok = len(target_basis) == stab.dim
    report.add("dim Hom_A(H, Hom_R(V,W)) = dim St", ok,
               0 if ok else abs(len(target_basis) - stab.dim))
    # transported basis: reshape u: (w.dim) x (h.dim * v.dim) -> (w.dim*v.dim) x h.dim
    transported = []
    for u in stab.basis:
        data = [{} for _ in range(w.dim * v.dim)]
        for t, col, val in u.nonzeros():
            hi, s = divmod(col, v.dim)
            data[t * v.dim + s][hi] = val
        transported.append(Matrix(w.dim * v.dim, h.dim, data, order))
    # A-linearity residual of each transported element
    bad = 0
    for tm in transported:
        for sm, am in zip(src_mats, tgt_mats):
            if tm * sm != am * tm:
                bad += 1
    report.add("transported elements are A-linear (uses gamma)", bad == 0, bad)
    if target_basis:
        # the transported directions outside the target span
        both = Matrix.from_cols([flatten(b) for b in target_basis + transported],
                                w.dim * v.dim * h.dim, order)
        bad = rank(both) - len(target_basis)
        report.add("transport is bijective onto the target", bad == 0, bad)
    return {"basis": transported, "target_basis": target_basis, "report": report}


def stab_compose(k: ComoduleAlgebraData, u: ModuleRep, f: Matrix, gmap: Matrix) -> Matrix:
    """Composition St(V,W) (x) St(U,V) -> St(U,W): (f o g)(h (x) x) = f(h_2 (x) g(h_1 (x) x)).

    As matrices, f o g = f . (1 (x) g) . (tau Delta (x) 1) with tau Delta(h) = h_2 (x) h_1.
    """
    h = k.over
    order = k.order
    tau_delta = Matrix.from_cols([{h2 * h.dim + h1: c for (h1, h2), c in h.comult[hi].items()}
                                  for hi in range(h.dim)], h.dim * h.dim, order)
    return mul_id_kron(f, h.dim, gmap) * kron(tau_delta, Matrix.identity(u.dim, order))


def stab_unit(k: ComoduleAlgebraData, v: ModuleRep) -> Matrix:
    """The unit of St(V): u(h (x) x) = eps(h) x."""
    h = k.over
    order = k.order
    data = [{hi * v.dim + x: h.counit[hi] for hi in range(h.dim)} for x in range(v.dim)]
    return Matrix(v.dim, h.dim * v.dim, data, order)
