"""Explicit quiver representations over the rationals.

For a finite-type quiver this module constructs one indecomposable
representation per positive root, deterministically: walk the root down to
a simple root along a sink-admissible sequence of simple reflections, then
transport the simple representation back up with cokernel (source-side)
reflection steps. One memoized transport, `_transport`, serves the
registry and `indecomposable_for_root`: the sink word returns to the
quiver after n steps, so a replayed step depends only on (step mod n,
root), and each such step is made once (proof in its docstring).
It reflects the quiver once per level, and every step builds its
module on the level's quiver. Integral entries are stored as ints.
Each step takes its cokernel from an integer left kernel
(`_linalg.int_kernel`) and slices each new map out of the kernel rows,
so the registry maps are integral (E7's have entries in {-1, 0, 1}; the
tests pin it) and kept as they are. dim Hom(M, N) is the nullity of the intertwiner equations, taken
from their fraction-free integer rank (`_linalg.rank`), and `ext_dim`
comes from the bilinear-form identity hom - ext = form(dim M, dim N),
which is validated against an independent resolution-based computation
in the test suite. The registry ranks only its exceptionality
certificate, one endomorphism ring per root: in finite type Hom and Ext
between indecomposables are the positive and negative parts of the
Euler form (`RootSystem.euler`; proof in the `IndecRegistry`
docstring), so the zero screens `RootSystem.orth` and `left_orth`
and the registry's `maps_into_at` and `ext_into_at`, int bitmasks over
the roots in the order of the root system's reflections, are screens on
that table.
`hom_basis` gives an integer basis of Hom from the same kernel; only
the injectivity scan `IndecRegistry.has_injective_hom` uses it, and no
ncpq function calls that scan.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ._linalg import RatMatrix, int_kernel, integer_rows, rank
from .errors import NcpqError, NonFiniteTypeError, ValidationError
from .quiver import Quiver, Vector, euler_form, positive_root_count, topological_order
from .weyl import RootSystem, complete_roots, is_positive, simple_reflect, simple_root


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
    aligned with quiver.arrows by position, and every shape is checked.
    Entries are stored as ints when integral and as Fractions otherwise,
    so the Hom equations of integral modules stay in the integers. A map
    whose entries are all of type int, as every map the transport builds
    is, is kept entry for entry (only its rows are made tuples); any
    other map goes through `_exact` entry by entry.
    """

    quiver: Quiver
    dims: Vector
    maps: tuple[RatMatrix, ...]

    def __post_init__(self):
        if len(self.dims) != self.quiver.n:
            raise ValidationError("dimension vector length does not match quiver")
        if min(self.dims, default=0) < 0:
            raise ValidationError("negative dimension")
        if len(self.maps) != len(self.quiver.arrows):
            raise ValidationError("one matrix per arrow required")
        frozen = []
        for (h, t), m in zip(self.quiver.arrows, self.maps):
            rows, cols = self.dims[t - 1], self.dims[h - 1]
            if set(map(type, itertools.chain.from_iterable(m))) <= {int}:
                m = tuple(map(tuple, m))
            else:
                m = tuple(tuple(_exact(x) for x in row) for row in m)
            if len(m) != rows or not set(map(len, m)) <= {cols}:
                raise ValidationError(
                    f"map for arrow ({h}, {t}) must be {rows}x{cols}")
            frozen.append(m)
        object.__setattr__(self, "maps", tuple(frozen))

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


class _Level(NamedTuple):
    """One level of the transport: the cokernel step at the source j of
    `source`, which gives a module on `target`, the quiver with j's
    arrows reversed. `out` holds the indices of the arrows leaving j, and
    target arrow i is source arrow order[i], reversed if it leaves j."""

    source: Quiver
    target: Quiver
    j: int
    out: tuple[int, ...]
    order: tuple[int, ...]


def _level(source: Quiver, j: int, target: Quiver) -> _Level:
    """The plan of the cokernel step at j from `source` to `target`,
    checked once: j must be a source of `source`, and reversing its
    arrows must give target's arrows in the order `order` lists."""
    if not source.is_source(j):
        raise NcpqError(f"vertex {j} is not a source")
    out = source.arrow_indices_from(j)
    moved = sorted((((t, h) if k in out else (h, t)), k)
                   for k, (h, t) in enumerate(source.arrows))
    if tuple(a for a, _ in moved) != target.arrows:
        raise NcpqError("transport misaligned the quiver; this is a bug")
    return _Level(source, target, j, out, tuple(k for _, k in moved))


def _source_cokernel_step(rep: Representation, level: _Level) -> Representation:
    """Reverse the arrows at the level's source j, replacing the space
    there by the cokernel of the combined outgoing map. Requires that map
    injective, which holds along indecomposable transport, and `rep` on
    the level's source quiver. The outgoing blocks are stacked; the map
    of each reversed arrow is its column block of the integer left
    kernel, sliced out of every kernel row, and the module is built on
    the level's target quiver."""
    if rep.quiver != level.source:
        raise NcpqError("transport misaligned the quiver; this is a bug")
    j = level.j
    dj = rep.dims[j - 1]
    block_rows = [row for k in level.out for row in rep.maps[k]]
    total_rows = len(block_rows)
    # The rows y of proj span {y : y phi = 0}, whose size is total_rows - dj
    # exactly when phi is injective.
    proj = int_kernel(integer_rows(list(zip(*block_rows))), total_rows)
    new_dim_j = len(proj)
    if new_dim_j != total_rows - dj:
        raise NcpqError("outgoing map is not injective; transport is broken")
    maps = list(rep.maps)
    off = 0
    for k in level.out:
        width = len(rep.maps[k])
        maps[k] = tuple(row[off:off + width] for row in proj)
        off += width
    dims = rep.dims[:j - 1] + (new_dim_j,) + rep.dims[j:]
    return Representation(level.target, dims, tuple(maps[k] for k in level.order))


def _is_simple_vector(v: Vector) -> int | None:
    """Vertex index when v is a simple root, else None."""
    if sum(v) == 1 and all(x in (0, 1) for x in v):
        return v.index(1) + 1
    return None


def _transport(q: Quiver, roots: RootSystem,
               alphas: Sequence[Vector]) -> dict[Vector, Representation]:
    """The indecomposable at each positive root in `alphas`, by one
    memoized reflection-functor transport.

    The sink word is the reversed topological order of q, cycled: step m
    reflects at its (m mod n)-th letter, a sink of the orientation
    quivers[m mod n]. Each root walks down until it meets a simple root,
    and the simple module there is carried back up by cokernel steps.

    Reflecting once at every vertex reverses every arrow twice, so
    quivers[n] == q, which is checked. Hence the walk from step m, the
    simple root it stops at and every map its replay builds depend only on
    (m mod n, the vector at step m). Memoizing the replayed module under
    that key therefore gives every root the module its own walk would
    build, map for map, and each key is a positive root at one of n
    levels, so all roots together make at most n·|Φ⁺| cokernel steps. A
    walk stops early at a key already replayed. The walks stay in the
    positive cone, which is checked, and so can visit at most n·|Φ⁺|
    keys; each is bounded by `max_steps` all the same.

    The n level quivers are built and checked once, and so is each
    level's step plan (`_level`): a step reads its arrows off the plan,
    checks that its input lies on the plan's source quiver, and builds
    its module on the level's quiver, so no step makes a quiver.
    """
    n = q.n
    sink_word = tuple(reversed(topological_order(q)))
    quivers = [q]
    for step, j in enumerate(sink_word):
        if not quivers[-1].is_sink(j):
            raise NcpqError(f"vertex {j} is not a sink at step {step}")
        quivers.append(_reflect_quiver(quivers[-1], j))
    if quivers[n] != q:
        raise NcpqError("the sink word did not restore the quiver; this is a bug")
    levels = [_level(quivers[m + 1], sink_word[m], quivers[m]) for m in range(n)]
    max_steps = 4 * n * len(roots.positive_real_roots) + 16
    memo: dict[tuple[int, Vector], Representation] = {}
    for alpha in alphas:
        path: list[Vector] = []
        vec = alpha
        step = 0
        while (step % n, vec) not in memo:
            vertex = _is_simple_vector(vec)
            if vertex is not None:
                memo[step % n, vec] = simple_representation(quivers[step % n], vertex)
                break
            path.append(vec)
            vec = simple_reflect(roots.cartan, sink_word[step % n] - 1, vec)
            if not is_positive(vec):
                raise NcpqError("root walk left the positive cone; this is a bug")
            step += 1
            if step > max_steps:
                raise NcpqError("root walk failed to reach a simple root")
        rep = memo[step % n, vec]
        for k in range(step - 1, -1, -1):
            rep = _source_cokernel_step(rep, levels[k % n])
            memo[k % n, path[k]] = rep
        if rep.dims != alpha:
            raise NcpqError("transport produced the wrong dimension vector")
    return {alpha: memo[0, alpha] for alpha in alphas}


def indecomposable_for_root(q: Quiver, alpha: Vector,
                            roots: RootSystem | None = None) -> Representation:
    """The indecomposable representation with dimension vector alpha, by
    `_transport`, so it is the registry's module at alpha. `roots`
    defaults to `complete_roots`, which refuses before generating any.
    """
    if roots is None:
        roots = complete_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("indecomposables are only tabulated in finite type")
    if alpha not in roots.positive_real_roots:
        raise ValidationError(f"{alpha} is not a positive root of this quiver")
    return _transport(q, roots, (alpha,))[alpha]


class IndecRegistry:
    """Complete table positive root -> indecomposable, with Hom and Ext
    read off the Euler form.

    The roots are numbered as `RootSystem.sorted_roots` numbers them, in
    the order of its reflections, so bit k of an int mask names the k-th
    root on both sides of the bijection; `position`, `mask_of` and
    `roots_of` convert. The masks that perpendicular categories
    intersect, a^⊥ and ^⊥a, are the root system's `orth` and `left_orth`
    at the position of a. Immutable after build; its memos fill lazily:
    the tables of the roots mapping into each root from below
    (`maps_into_at`) and of those extending into it (`ext_into_at`),
    each made whole on first read, and the injectivity scan's answers
    (`_injective`). They are safe for concurrent reads
    under the GIL.

    For the modules at roots a and b, dim Hom(a, b) = max(0, <a, b>) and
    dim Ext(a, b) = max(0, -<a, b>), with <a, b> the Euler form
    (`RootSystem.euler`), so `hom`, `ext` and the masks rank nothing. A
    registry exists only in finite type (`build_registry` refuses a
    truncated root system or one of the wrong size), and there:
    - Each module has End = k, which `build_registry` ranks, so it is
      indecomposable, and the modules are the indecomposables, one per
      positive root (Gabriel).
    - dim Hom(X, Y) - dim Ext(X, Y) = <dim X, dim Y> for all modules.
    - Hom(X, Y) and Ext(X, Y) are never both nonzero. Ext(X, Y) =
      D Hom(Y, tau X) (Auslander-Reiten), so both would give nonzero
      maps X -> Y -> tau X, and the almost split sequence ending in X
      (not projective, as Ext(X, -) != 0) irreducible maps
      tau X -> E -> X. Then X lies on a cycle of nonzero non-invertible
      maps between indecomposables (compose away any invertible step);
      but the Auslander-Reiten quiver of a Dynkin quiver is its
      preprojective component, so no indecomposable lies on a cycle
      (Ringel 1984, 2.4).
    So one of Hom and Ext is 0, and the other is |<a, b>|.
    """

    def __init__(self, quiver: Quiver, rootsystem: RootSystem,
                 reps: dict[Vector, Representation]):
        if reps.keys() != rootsystem.positive_real_roots:
            raise ValidationError("a registry holds one module per root of its root system")
        # Two orientations of one graph share their roots, but Hom and Ext
        # are read off the root system's own Euler form.
        if quiver != rootsystem.quiver:
            raise ValidationError("a registry's root system is of another quiver")
        self.quiver = quiver
        self.rootsystem = rootsystem
        self._roots = rootsystem.sorted_roots()
        self._index = {r: k for k, r in enumerate(self._roots)}
        self._reps = tuple(reps[r] for r in self._roots)
        self._injective: dict[tuple[Vector, Vector], bool] = {}

    def roots(self) -> tuple[Vector, ...]:
        return self._roots

    def __len__(self) -> int:
        return len(self._roots)

    def __contains__(self, root: Vector) -> bool:
        return root in self._index

    def __getitem__(self, root: Vector) -> Representation:
        return self._reps[self.position(root)]

    def position(self, root: Vector) -> int:
        """The bit of `root` in a mask, and its row in the root system's
        tables. An unregistered root raises ValidationError, here and in
        every root-keyed method below."""
        try:
            return self._index[root]
        except KeyError:
            raise ValidationError(f"{root} is not a registered root") from None

    def mask_of(self, roots: Iterable[Vector]) -> int:
        """The int mask of a set of roots, bit k for the k-th of `roots()`."""
        return functools.reduce(int.__or__, (1 << self.position(r) for r in roots), 0)

    def roots_of(self, mask: int) -> tuple[Vector, ...]:
        """The roots of an int mask, in root order: its binary digits,
        lowest first, select them."""
        return tuple(itertools.compress(self._roots, map("1".__eq__, bin(mask)[:1:-1])))

    def hom(self, a: Vector, b: Vector) -> int:
        """dim Hom(a, b) = max(0, <a, b>)."""
        return max(0, self.rootsystem.euler[self.position(a)][self.position(b)])

    def ext(self, a: Vector, b: Vector) -> int:
        """dim Ext(a, b) = max(0, -<a, b>)."""
        return max(0, -self.rootsystem.euler[self.position(a)][self.position(b)])

    @functools.cached_property
    def maps_into_at(self) -> tuple[int, ...]:
        """At each root m, the mask of the roots x with dim x not >= dim m
        componentwise and Hom(x, m) != 0: <x, m> > 0. The dimension test
        rules out x = m."""
        return tuple(sum(1 << k for k, (x, e) in enumerate(zip(self._roots, column))
                         if e > 0 and any(map(int.__lt__, x, m)))
                     for m, column in zip(self._roots, zip(*self.rootsystem.euler)))

    @functools.cached_property
    def ext_into_at(self) -> tuple[int, ...]:
        """At each root a, the mask of the roots x with Ext(x, a) != 0:
        <x, a> < 0. <a, a> = 1 (`build_registry` checks it), so a is not
        in its own mask. Made whole on first read, row x of the Euler
        table at a time, with no transposed copy of it."""
        into = [0] * len(self._roots)
        for x, row in enumerate(self.rootsystem.euler):
            bit = 1 << x
            for a, e in enumerate(row):
                if e < 0:
                    into[a] |= bit
        return tuple(into)

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
    """Construct and certify the full root -> indecomposable table: one
    `_transport` over every positive root, so the registry makes at most
    n·|Φ⁺| cokernel steps, and each entry is then certified exceptional:
    End = k by one rank, and Ext = 1 - <a, a> = 0, as <a, a> = 1 (also
    checked). These ranks are the only ones a registry makes (see
    `IndecRegistry`). `roots` defaults to `complete_roots`, which
    refuses before generating."""
    if roots is None:
        roots = complete_roots(q)
    if q != roots.quiver:
        raise ValidationError("a registry's root system is of another quiver")
    roots.require_complete()
    expected = positive_root_count(roots.classification.label)
    if len(roots.positive_real_roots) != expected:
        raise NcpqError("positive-root count does not match the classified type")
    registry = IndecRegistry(q, roots, _transport(q, roots, sorted(roots.positive_real_roots)))
    for alpha in registry.roots():
        if hom_dim(registry[alpha], registry[alpha]) != 1 or euler_form(q, alpha, alpha) != 1:
            raise NcpqError(f"entry {alpha} failed its exceptionality certificate")
    return registry
