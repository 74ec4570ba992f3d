"""Explicit quiver representations over the rationals.

For a finite-type quiver this module constructs one indecomposable
representation per positive root, deterministically: walk the root down to
a simple root along a sink-admissible sequence of simple reflections, then
transport the simple representation back up with cokernel (source-side)
reflection steps. Integral entries are stored as ints. Each step takes
its cokernel from an integer left kernel (`_linalg.int_kernel`), so the
registry maps are integral (E7's have entries in {-1, 0, 1}; the tests
pin it). dim Hom(M, N) is the nullity of the intertwiner equations, taken
from their fraction-free integer rank (`_linalg.rank`). Ext dimensions
come from the bilinear-form identity hom - ext = form(dim M, dim N),
which is validated against an independent resolution-based computation
in the test suite. `hom_basis` gives an integer basis of Hom from the
same kernel; only the injectivity scan `IndecRegistry.has_injective_hom`
uses it, and no other ncpq function calls that scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import RatMatrix, int_kernel, integer_rows, rank
from .errors import NcpqError, NonFiniteTypeError, ValidationError
from .quiver import Quiver, Vector, euler_form, positive_root_count, topological_order
from .weyl import RootSystem, generate_roots, is_positive, simple_reflect, simple_root


def _zero_map(rows: int, cols: int) -> RatMatrix:
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def _exact(x) -> int | Fraction:
    """x as an exact rational: an int when it is integral."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Representation:
    """Vector spaces at the vertices, one exact-rational matrix per arrow.

    The map of arrow (h, t) has shape dims[t-1] x dims[h-1]; maps are
    aligned with quiver.arrows by position. Entries are stored as ints
    when integral and as Fractions otherwise, so the Hom equations of
    integral modules stay in the integers.
    """

    quiver: Quiver
    dims: Vector
    maps: tuple[RatMatrix, ...]

    def __post_init__(self):
        if len(self.dims) != self.quiver.n:
            raise ValidationError("dimension vector length does not match quiver")
        if any(d < 0 for d in self.dims):
            raise ValidationError("negative dimension")
        if len(self.maps) != len(self.quiver.arrows):
            raise ValidationError("one matrix per arrow required")
        frozen = []
        for (h, t), m in zip(self.quiver.arrows, self.maps):
            rows, cols = self.dims[t - 1], self.dims[h - 1]
            m = tuple(tuple(_exact(x) for x in row) for row in m)
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValidationError(
                    f"map for arrow ({h}, {t}) must be {rows}x{cols}")
            frozen.append(m)
        object.__setattr__(self, "maps", tuple(frozen))

    @property
    def dim(self) -> Vector:
        return self.dims

    def to_debug_json(self) -> dict:
        denom = math.lcm(*(x.denominator for m in self.maps for row in m for x in row))
        return {
            "dims": list(self.dims),
            "denominator": denom,
            "maps": [[[int(x * denom) for x in row] for row in m] for m in self.maps],
        }


def zero_representation(q: Quiver) -> Representation:
    return Representation(q, (0,) * q.n, tuple(_zero_map(0, 0) for _ in q.arrows))


def simple_representation(q: Quiver, i: int) -> Representation:
    """One-dimensional space at vertex i, zero everywhere else."""
    if not 1 <= i <= q.n:
        raise ValidationError(f"vertex {i} outside 1..{q.n}")
    dims = simple_root(q.n, i)
    maps = tuple(_zero_map(dims[t - 1], dims[h - 1]) for h, t in q.arrows)
    return Representation(q, dims, maps)


def _intertwiner_rows(M: Representation, N: Representation):
    """Equations f_t M_a = N_a f_h, vectorized over the blocks f_i."""
    q = M.quiver
    mdim, ndim = M.dims, N.dims
    offsets = []
    total = 0
    for i in range(q.n):
        offsets.append(total)
        total += ndim[i] * mdim[i]
    rows = []
    for k, (h, t) in enumerate(q.arrows):
        h -= 1
        t -= 1
        Ma, Na = M.maps[k], N.maps[k]
        for r in range(ndim[t]):
            for c in range(mdim[h]):
                row = [0] * total
                for s in range(mdim[t]):
                    row[offsets[t] + r * mdim[t] + s] += Ma[s][c]
                for s in range(ndim[h]):
                    row[offsets[h] + s * mdim[h] + c] -= Na[r][s]
                rows.append(row)
    return rows, total, offsets


def hom_dim(M: Representation, N: Representation) -> int:
    """Dimension of the space of intertwiners M -> N."""
    if M.quiver != N.quiver:
        raise ValidationError("representations live over different quivers")
    rows, total, _ = _intertwiner_rows(M, N)
    if total == 0:
        return 0
    return total - rank(rows, total)


def hom_basis(M: Representation, N: Representation) -> tuple[tuple[RatMatrix, ...], ...]:
    """Deterministic basis of Hom(M, N), one tuple of integer vertex maps
    each: the `int_kernel` of the intertwiner equations."""
    if M.quiver != N.quiver:
        raise ValidationError("representations live over different quivers")
    rows, total, offsets = _intertwiner_rows(M, N)
    if total == 0:
        return ()
    basis = int_kernel(integer_rows(rows), total)
    q = M.quiver
    out = []
    for vec in basis:
        blocks = []
        for i in range(q.n):
            nd, md = N.dims[i], M.dims[i]
            blocks.append(tuple(
                tuple(vec[offsets[i] + r * md + c] for c in range(md))
                for r in range(nd)))
        out.append(tuple(blocks))
    return tuple(out)


def ext_dim(M: Representation, N: Representation) -> int:
    """dim Ext(M, N) = hom_dim(M, N) - form(dim M, dim N); always >= 0."""
    value = hom_dim(M, N) - euler_form(M.quiver, M.dims, N.dims)
    if value < 0:
        raise NcpqError("negative Ext dimension; this is a bug")
    return value


def is_exceptional(M: Representation) -> bool:
    """One-dimensional endomorphism space and no self-extensions."""
    return hom_dim(M, M) == 1 and ext_dim(M, M) == 0


def top_simples(M: Representation) -> frozenset[int]:
    """Vertices carrying the radical quotient: where the space is larger
    than the joint image of the incoming arrow maps."""
    q = M.quiver
    out = set()
    for v in q.vertices:
        d = M.dims[v - 1]
        if d == 0:
            continue
        cols: list[list[int | Fraction]] = [[] for _ in range(d)]
        for k in q.arrow_indices_into(v):
            m = M.maps[k]
            for r in range(d):
                cols[r].extend(m[r])
        ncols = len(cols[0]) if cols else 0
        if d - rank(cols, ncols) > 0:
            out.add(v)
    return frozenset(out)


def _reflect_quiver(q: Quiver, v: int) -> Quiver:
    arrows = tuple((t, h) if h == v or t == v else (h, t) for h, t in q.arrows)
    return Quiver(q.n, arrows)


def _source_cokernel_step(rep: Representation, j: int) -> Representation:
    """Reverse the arrows at a source j, replacing the space there by the
    cokernel of the combined outgoing map. Requires that map injective,
    which holds along indecomposable transport."""
    q = rep.quiver
    if not q.is_source(j):
        raise NcpqError(f"vertex {j} is not a source")
    out_idx = q.arrow_indices_from(j)
    dj = rep.dims[j - 1]
    block_rows = []
    offsets = []
    total_rows = 0
    for k in out_idx:
        t = q.arrows[k][1]
        offsets.append(total_rows)
        total_rows += rep.dims[t - 1]
        block_rows.extend(rep.maps[k])
    # The rows y of proj span {y : y phi = 0}, whose size is total_rows - dj
    # exactly when phi is injective.
    proj = int_kernel(integer_rows(list(zip(*block_rows))), total_rows)
    new_dim_j = len(proj)
    if new_dim_j != total_rows - dj:
        raise NcpqError("outgoing map is not injective; transport is broken")
    dims = tuple(new_dim_j if v == j else rep.dims[v - 1] for v in q.vertices)
    pairs: list[tuple[tuple[int, int], RatMatrix]] = []
    for k, (h, t) in enumerate(q.arrows):
        if k in out_idx:
            pos = out_idx.index(k)
            off = offsets[pos]
            width = rep.dims[t - 1]
            new_map = tuple(
                tuple(proj[r][off + c] for c in range(width))
                for r in range(new_dim_j))
            pairs.append(((t, h), new_map))
        else:
            pairs.append(((h, t), rep.maps[k]))
    pairs.sort(key=lambda p: p[0])
    new_q = Quiver(q.n, tuple(p[0] for p in pairs))
    return Representation(new_q, dims, tuple(p[1] for p in pairs))


def _is_simple_vector(v: Vector) -> int | None:
    """Vertex index when v is a simple root, else None."""
    if sum(v) == 1 and all(x in (0, 1) for x in v):
        return v.index(1) + 1
    return None


def indecomposable_for_root(q: Quiver, alpha: Vector,
                            roots: RootSystem | None = None) -> Representation:
    """The indecomposable representation with dimension vector alpha.

    Deterministic: the sink-admissible word is the reversed topological
    order of q, cycled; the walk stops at the first simple root it meets
    and the cokernel steps are replayed in reverse.
    """
    if roots is None:
        roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("indecomposables are only tabulated in finite type")
    if alpha not in roots.positive_real_roots:
        raise ValidationError(f"{alpha} is not a positive root of this quiver")
    sink_word = tuple(reversed(topological_order(q)))
    quivers = [q]
    word: list[int] = []
    vec = alpha
    step = 0
    max_steps = 4 * q.n * len(roots.positive_real_roots) + 16
    while _is_simple_vector(vec) is None:
        j = sink_word[step % q.n]
        cur = quivers[-1]
        if not cur.is_sink(j):
            raise NcpqError(f"vertex {j} is not a sink at step {step}")
        vec = simple_reflect(roots.cartan, j - 1, vec)
        if not is_positive(vec):
            raise NcpqError("root walk left the positive cone; this is a bug")
        word.append(j)
        quivers.append(_reflect_quiver(cur, j))
        step += 1
        if step > max_steps:
            raise NcpqError("root walk failed to reach a simple root")
    rep = simple_representation(quivers[-1], _is_simple_vector(vec))
    for k in range(len(word) - 1, -1, -1):
        rep = _source_cokernel_step(rep, word[k])
        if rep.quiver != quivers[k]:
            raise NcpqError("transport misaligned the quiver; this is a bug")
    if rep.dims != alpha:
        raise NcpqError("transport produced the wrong dimension vector")
    return rep


class IndecRegistry:
    """Complete table positive root -> indecomposable, with memoized
    Hom/Ext lookups keyed by root pairs.

    Immutable after build. All memos fill lazily, on first use: Hom and
    Ext dimensions per ordered root pair, and per root the two orthogonal
    sets `right_orth`/`left_orth` that perpendicular categories intersect
    (plus the answers of the injectivity scan, when it is asked). The
    memo dicts are safe for concurrent reads under the GIL.
    """

    def __init__(self, quiver: Quiver, rootsystem: RootSystem,
                 reps: dict[Vector, Representation]):
        self.quiver = quiver
        self.rootsystem = rootsystem
        self._reps = dict(reps)
        self._roots = tuple(sorted(reps))
        self._hom: dict[tuple[Vector, Vector], int] = {}
        self._injective: dict[tuple[Vector, Vector], bool] = {}
        self._ext: dict[tuple[Vector, Vector], int] = {}
        self._right_orth: dict[Vector, frozenset[Vector]] = {}
        self._left_orth: dict[Vector, frozenset[Vector]] = {}

    def roots(self) -> tuple[Vector, ...]:
        return self._roots

    def __len__(self) -> int:
        return len(self._roots)

    def __contains__(self, root: Vector) -> bool:
        return root in self._reps

    def __getitem__(self, root: Vector) -> Representation:
        try:
            return self._reps[root]
        except KeyError:
            raise ValidationError(f"{root} is not a registered root") from None

    def hom(self, a: Vector, b: Vector) -> int:
        key = (a, b)
        value = self._hom.get(key)
        if value is None:
            value = hom_dim(self[a], self[b])
            self._hom[key] = value
        return value

    def ext(self, a: Vector, b: Vector) -> int:
        key = (a, b)
        value = self._ext.get(key)
        if value is None:
            value = self.hom(a, b) - euler_form(self.quiver, a, b)
            if value < 0:
                raise NcpqError("negative Ext dimension; this is a bug")
            self._ext[key] = value
        return value

    def right_orth(self, a: Vector) -> frozenset[Vector]:
        """Roots m with Hom(a, m) = Ext(a, m) = 0."""
        orth = self._right_orth.get(a)
        if orth is None:
            orth = frozenset(m for m in self._roots
                             if self.hom(a, m) == 0 and self.ext(a, m) == 0)
            self._right_orth[a] = orth
        return orth

    def left_orth(self, a: Vector) -> frozenset[Vector]:
        """Roots m with Hom(m, a) = Ext(m, a) = 0."""
        orth = self._left_orth.get(a)
        if orth is None:
            orth = frozenset(m for m in self._roots
                             if self.hom(m, a) == 0 and self.ext(m, a) == 0)
            self._left_orth[a] = orth
        return orth

    def has_injective_hom(self, a: Vector, b: Vector) -> bool:
        """Whether some intertwiner embeds the module at a into the one at b.

        Scans the integer combinations of the Hom basis with coefficients
        in [-3, 3]. A True answer is exact: the map found is injective.
        A False answer is certified only when sum(dim M) <= 6 for the
        module M at a: if some combination is injective, then for each
        vertex some maximal minor of the combined map is a nonzero
        polynomial in the coefficients, and their product has degree
        sum(dim M). By the Combinatorial Nullstellensatz (Alon 1999) a
        nonzero polynomial of degree at most 6 does not vanish on the
        whole grid of 7 values per coefficient. Larger modules rest on the
        scan alone, and more than 4 basis maps raise NcpqError.

        No ncpq function calls this: relative simples come from Hom
        dimensions alone (`exc._subcategory_simples`). The tests keep it as
        the reference those simples are checked against, and perfbench's
        tracer wraps it by name.
        """
        key = (a, b)
        cached = self._injective.get(key)
        if cached is not None:
            return cached
        M, N = self[a], self[b]
        result = False
        if all(M.dims[i] <= N.dims[i] for i in range(len(a))):
            basis = hom_basis(M, N)
            d = len(basis)
            if d > 4:
                raise NcpqError("hom space too large for the injectivity scan")
            for coeffs in itertools.product(range(-3, 4), repeat=d):
                if not any(coeffs):
                    continue
                ok = True
                for i in range(self.quiver.n):
                    md = M.dims[i]
                    if md == 0:
                        continue
                    nd = N.dims[i]
                    rows = [[sum(coeffs[s] * basis[s][i][r][c] for s in range(d))
                             for c in range(md)] for r in range(nd)]
                    if rank(rows, md) != md:
                        ok = False
                        break
                if ok:
                    result = True
                    break
        self._injective[key] = result
        return result


def build_registry(q: Quiver, roots: RootSystem | None = None) -> IndecRegistry:
    """Construct and certify the full root -> indecomposable table."""
    if roots is None:
        roots = generate_roots(q)
    roots.require_complete()
    expected = positive_root_count(roots.classification.label)
    if len(roots.positive_real_roots) != expected:
        raise NcpqError("positive-root count does not match the classified type")
    reps = {alpha: indecomposable_for_root(q, alpha, roots)
            for alpha in sorted(roots.positive_real_roots)}
    registry = IndecRegistry(q, roots, reps)
    for alpha in registry.roots():
        if registry.hom(alpha, alpha) != 1 or registry.ext(alpha, alpha) != 0:
            raise NcpqError(f"entry {alpha} failed its exceptionality certificate")
    return registry
