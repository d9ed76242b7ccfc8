"""The closure order on 2x2 *congruence classes.

``reachable(M, N)`` decides whether the class of M is contained in the
closure of the class of N, i.e. whether arbitrarily small perturbations of M
reach class N.  The order is generated by:

    zero        -> everything
    udz(l)      -> hyp(s)                 always
    udz(l)      -> pair(m, n)             iff l = a m + b n with a, b >= 0
    udz(l)      -> delta(t)               iff Im(l conj(t)) >= 0
    pair(l,-l)  -> delta(t)               iff t = +-l

plus reflexivity (the lazy, length-0 path).  Everything else is a non-arrow.

The parameters are read from the forms as ``forms`` validated and
normalized them on construction (finite, within 1e-9 of unit modulus and
divided by it); nothing here checks them again.  Every predicate is decided in
floating point on those stored doubles, with no slack: a parameter near a
boundary is not snapped onto it, so udz(-1) -> pair(1,-1+1e-12i) is a
non-arrow (-1 lies about 1e-12 outside that sector) and pair(1,-1) ->
delta(1+1e-13i) is one too.

``hasse_subgraph`` restricts the order to a finite vertex set and emits its
transitive reduction; no covering relation on the infinite poset is claimed.
Only udz vertices and antipodal pairs have arrows both in and out, so it drops
just the two cases of arrow that a 2-step path implies, from the relation's own
bits (the rule and why it is exact are in its docstring).  Up to
``_SCALAR_GRAPH_MAX`` (12) vertices, a command line's worth, it calls
``reachable`` on every ordered pair and imports no numpy; past that crossover,
where the scalar path stops being faster even with numpy loaded, it evaluates
the cone, half-plane and +-l predicates that ``reachable`` uses on parameter
arrays, one family block at a time, so its relation is the same bits as n^2
``reachable`` calls; 10^4 vertices, the documented cap, take seconds (figures
in its docstring).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .errors import DuplicateVertex, InvalidInput
from .forms import (
    CanonicalForm,
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    _Record,
    format_form,
)
from .stratify import codimension


# --- predicates shared by reachable, hasse_subgraph, witnesses and certificates
#
# Each takes the real and imaginary parts of validated form parameters, as
# Python floats or as broadcastable ndarrays alike, and uses only + - * / and
# comparisons, so a vertex set's relation is the same bits from scalars or
# arrays, and a refusal's certificate reads the very numbers that refused.


def _near(zr, zi, ur, ui):
    """z = u: real and imaginary parts equal."""
    return (zr == ur) & (zi == ui)


def _on_line(zr, zi, ur, ui):
    """z = u or z = -u."""
    return _near(zr, zi, ur, ui) | _near(zr, zi, -ur, -ui)


def _cone_coefficients(lr, li, mr, mi, nr, ni):
    """(a, b, det): a mu + b nu = lam for det = Im(conj(mu) nu) != 0.

    det is 0 for mu = +-nu and may round to 0 a few ulps from them; a and b
    then hold the numerators, and only ``_in_cone``'s rays count.
    """
    det = mr * ni - nr * mi
    d = det + (det == 0.0)  # 1 where det is 0: nothing divides by zero
    return (lr * ni - nr * li) / d, (mr * li - lr * mi) / d, det


def _in_sector(a, b, det):
    return (det != 0.0) & (a >= 0.0) & (b >= 0.0)


def _ray_residual(lr, li, ur, ui):
    """lam - t u for the foot t = max(Re(lam conj(u)), 0) on the ray u R+."""
    t = lr * ur + li * ui
    t = t * (t > 0.0)
    return lr - t * ur, li - t * ui


def _on_ray(lr, li, ur, ui):
    """lam = u, or lam on the ray u R+ with a residual of exactly 0."""
    return _near(lr, li, ur, ui) | _near(*_ray_residual(lr, li, ur, ui), 0.0, 0.0)


def _in_cone(lr, li, mr, mi, nr, ni):
    """lam in mu R+ + nu R+: inside the sector, or on one of its two rays.

    For mu = nu that is the ray mu R+, for mu = -nu the line mu R.
    """
    return (_in_sector(*_cone_coefficients(lr, li, mr, mi, nr, ni))
            | _on_ray(lr, li, mr, mi) | _on_ray(lr, li, nr, ni))


def _im_lam_conj_tau(lr, li, tr, ti):
    """Im(lam conj(tau)), the product in CPython's complex order."""
    return lr * (-ti) + li * tr


def _cone_distance(lam: complex, mu: complex, nu: complex) -> float:
    """Euclidean distance from lam to the closed cone mu R+ + nu R+.

    0.0 exactly where ``reachable`` grants udz(lam) -> pair(mu, nu).
    Elsewhere it is the smaller ray residual, positive since ``_on_ray``
    holds for neither ray (outside a sector, the nearest point lies on a ray).
    """
    lr, li, mr, mi, nr, ni = lam.real, lam.imag, mu.real, mu.imag, nu.real, nu.imag
    if _in_cone(lr, li, mr, mi, nr, ni):
        return 0.0
    return min(abs(complex(*_ray_residual(lr, li, mr, mi))),
               abs(complex(*_ray_residual(lr, li, nr, ni))))


def reachable(source: CanonicalForm, target: CanonicalForm) -> bool:
    """Whether the class of ``source`` is contained in the closure of ``target``."""
    if source == target or isinstance(source, Zero):
        return True
    if isinstance(source, UnitDirectZero):
        lr, li = source.lam.real, source.lam.imag
        if isinstance(target, Hyperbolic):
            return True
        if isinstance(target, UnitPair):
            return _in_cone(lr, li, target.mu.real, target.mu.imag, target.nu.real, target.nu.imag)
        if isinstance(target, DeltaTau):
            return _im_lam_conj_tau(lr, li, target.tau.real, target.tau.imag) >= 0.0
        return False
    if isinstance(source, UnitPair) and source.antipodal and isinstance(target, DeltaTau):
        return _on_line(target.tau.real, target.tau.imag, source.mu.real, source.mu.imag)
    return False


def _edge_array(edges, n: int) -> np.ndarray:
    """``edges`` as a read-only (E, 2) int32 array of indices into n vertices."""
    import numpy as np

    edges = np.array(edges, dtype=np.int32).reshape(len(edges), 2)
    if ((edges < 0) | (edges >= n)).any():
        raise ValueError(f"edge index outside [0, {n})")
    edges.flags.writeable = False
    return edges


class HasseSubgraph(_Record):
    """Vertices and covering edges: ``edges`` is a read-only (E, 2) int32 array
    of (source, target) indices in row-major order, converted from any sequence
    of pairs; an index outside ``range(len(vertices))`` raises ValueError.
    Graphs compare by identity, as an array takes no part in ``==``.

    From ``hasse_subgraph``, they are the arrows no 2-step path implies.

    ``hasse_subgraph`` hands a small graph its edges as a list of int pairs
    (``_from_pairs``); its ``edges`` array is built on first access, so a
    graph that is only printed never imports numpy.
    """

    __match_args__ = ("vertices", "edges")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, vertices: tuple[CanonicalForm, ...], edges):
        d = self.__dict__
        d["vertices"], d["_edges"] = vertices, _edge_array(edges, len(vertices))

    @classmethod
    def _from_pairs(cls, vertices: tuple[CanonicalForm, ...], pairs: list[tuple[int, int]]) -> HasseSubgraph:
        graph = cls.__new__(cls)
        d = graph.__dict__
        d["vertices"], d["_pairs"] = vertices, pairs
        return graph

    @property
    def edges(self) -> np.ndarray:
        d = self.__dict__
        if "_edges" not in d:
            d["_edges"] = _edge_array(d["_pairs"], len(self.vertices))
        return d["_edges"]

    def _pair_list(self) -> list:
        """The edges as (source, target) pairs of Python ints, in the graph's order."""
        pairs = self.__dict__.get("_pairs")
        return self.edges.tolist() if pairs is None else pairs

    def __reduce__(self):
        # rebuilt through a constructor, so a copy's edges are read-only too
        pairs = self.__dict__.get("_pairs")
        if pairs is None:
            return HasseSubgraph, (self.vertices, self.edges)
        return HasseSubgraph._from_pairs, (self.vertices, pairs)


def _parts(zs) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    z = np.array(zs, dtype=np.complex128)
    return z.real, z.imag


def _families(verts) -> list[list[int]]:
    """Indices of the (zero, udz, pair, antipodal pair, hyp, delta) vertices,
    bucketed by ``family``; a vertex with no such family raises InvalidInput.

    The antipodal pairs are listed under pair too.
    """
    by_family = {"zero": [], "udz": [], "pair": [], "hyp": [], "delta": []}
    for i, v in enumerate(verts):
        bucket = by_family.get(getattr(v, "family", None))
        if bucket is None:
            raise InvalidInput(f"not a canonical form: {v!r}")
        bucket.append(i)
    zero, udz, pair, hyp, delta = by_family.values()
    return [zero, udz, pair, [i for i in pair if verts[i].antipodal], hyp, delta]


def _relation(verts, families) -> np.ndarray:
    """R[i, j] = reachable(verts[i], verts[j]) for i != j, ``families`` being ``_families(verts)``.

    R is built one family block at a time.  Each block reads the vertices'
    parameters as ``reachable`` reads them and applies the same predicates to
    their arrays, so it rounds as ``reachable`` does.
    """
    import numpy as np

    zero, udz, pair, anti, hyp, delta = families
    n = len(verts)
    R = np.zeros((n, n), dtype=bool)
    R[zero, :] = True
    R[zero, zero] = False
    tr, ti = _parts([verts[j].tau for j in delta])
    if udz:
        u = np.array(udz)[:, None]
        lr, li = _parts([verts[i].lam for i in udz])
        lr, li = lr[:, None], li[:, None]
        R[u, hyp] = True
        mr, mi = _parts([verts[j].mu for j in pair])
        nr, ni = _parts([verts[j].nu for j in pair])
        R[u, pair] = _in_cone(lr, li, mr, mi, nr, ni)
        R[u, delta] = _im_lam_conj_tau(lr, li, tr, ti) >= 0.0
    if anti:
        mr, mi = _parts([verts[i].mu for i in anti])
        R[np.array(anti)[:, None], delta] = _on_line(tr, ti, mr[:, None], mi[:, None])
    return R


# Vertex sets up to this size take the scalar path: n(n - 1) ``reachable``
# calls and a reduction over Python sets.  12 is the last size where it is
# faster than the array path even with numpy already loaded (Intel Xeon,
# Python 3.11, numpy 2.4; medians over 40 random sets of all families, three
# batches): hasse_subgraph takes 81-88 us scalar against 91-106 us array at 12
# vertices, 97-103 against 92-112 at 13 and 112-118 against 106-113 at 14;
# with to_dot after it, 131-138 against 163-183 us at 12 and 211 against 194
# at 16.
_SCALAR_GRAPH_MAX = 12


def _scalar_graph(verts: tuple[CanonicalForm, ...], families) -> HasseSubgraph:
    """The Hasse edges from ``reachable`` on every ordered pair, without numpy,
    reduced by ``hasse_subgraph``'s two cases."""
    n = len(verts)
    zero, udz, _, anti, _, delta = families
    succ = [[j for j in range(n) if j != i and reachable(verts[i], verts[j])] for i in range(n)]
    implied = [()] * n
    entered = {j for k in udz + anti for j in succ[k]}
    for i in zero:
        implied[i] = entered
    anti, delta = set(anti), set(delta)
    for i in udz:
        implied[i] = {j for k in succ[i] if k in anti for j in succ[k] if j in delta}
    return HasseSubgraph._from_pairs(verts, [(i, j) for i, out in enumerate(succ) for j in out if j not in implied[i]])


def _array_graph(verts: tuple[CanonicalForm, ...], families) -> HasseSubgraph:
    """The Hasse edges from ``_relation``, reduced by ``hasse_subgraph``'s two
    cases on the family index lists."""
    import numpy as np

    R = _relation(verts, families)
    zero, udz, _, anti, _, delta = families
    R[zero] &= ~R[udz + anti].any(axis=0)
    if udz and anti:
        u, a = np.array(udz)[:, None], np.array(anti)
        k, j = np.nonzero(R[a[:, None], delta])  # the arrows antipodal pair a[k] -> delta[j]
        implied = np.zeros((len(delta), len(udz)), dtype=bool)
        np.logical_or.at(implied, j, R[u, a[k]].T)  # implied[j] |= (udz -> a[k]), for every such k
        R[u, delta] &= ~implied.T
    src = np.flatnonzero(R.any(axis=1))
    rows, cols = np.divmod(np.flatnonzero(R[src]), len(verts))
    return HasseSubgraph(verts, np.stack((src[rows], cols), axis=1))


def hasse_subgraph(vertices) -> HasseSubgraph:
    """Transitive reduction of the closure order on a finite vertex set.

    An arrow i -> j is dropped when a 2-step path i -> k -> j implies it;
    edges are in row-major order.  Zero has no in-arrow and hyp, delta and the
    non-antipodal pairs have no out-arrow, so k is udz (and i zero) or an
    antipodal pair (and i zero or udz, j delta).  An arrow is therefore
    implied exactly when

        i is zero, and j has an in-arrow from a non-zero vertex, or
        i is udz, j is delta, and i -> k -> j for an antipodal pair k.

    Both paths test these two cases on the relation's bits as computed, so the
    result is the reduction of that relation whatever its rounding, with no
    transitivity assumed and no matrix product.  Up to ``_SCALAR_GRAPH_MAX``
    (12) vertices, the size a command line holds, the relation is n(n - 1)
    ``reachable`` calls and nothing imports numpy; the graph's ``edges``
    array is built only when read.  Larger sets build the relation one
    (source family, target family) block at a time with the predicates
    ``reachable`` uses, over parameter arrays.  Both paths give the same
    edges, bit for bit; the crossover is where the scalar path stops being
    faster even with numpy already loaded.

    Served size, random vertex sets of all families (Intel Xeon, 2 vCPUs,
    Python 3.11, numpy 2.4, one BLAS thread), with ``to_dot`` after it:

        10^3 vertices:  0.008 s + 0.012 s,   49 k edges,  5.5 MB of DOT,    50 MB peak RSS
        10^4 vertices:  0.70 s  + 0.93 s,   4.8 M edges,  518 MB of DOT,  1.08 GB peak RSS

    Time and memory grow with the number of edges, about n^2 / 20; at 10^4
    vertices the peak RSS is 0.34 GB before ``to_dot``, and ``graph``, which
    has ``to_dot`` write the DOT to stdout as it is made, peaks at 0.34 GB too.
    """
    verts = tuple(vertices)
    if len(verts) > 10**4:
        raise InvalidInput("at most 10^4 vertices supported")
    families = _families(verts)  # a non-form is refused before the duplicate check formats it
    if len(set(verts)) != len(verts):
        seen = set()
        for v in verts:
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {format_form(v)}")
            seen.add(v)
    return (_scalar_graph if len(verts) <= _SCALAR_GRAPH_MAX else _array_graph)(verts, families)


def iter_dot(graph: HasseSubgraph) -> Iterator[str]:
    """``to_dot(graph)`` in chunks: the header, rank layers and labels in one,
    then the edge lines of one source vertex at a time (in two chunks where
    they straddle two blocks of 2^16 sorted edges), then the closing brace.

    Edge lines are ordered by the (source, target) ranks of their ids, sorted
    once: with ``sorted`` for a graph that holds its edges as int pairs, which
    imports no numpy, and in numpy for one that holds an array.
    """
    ids = [format_form(v) for v in graph.vertices]
    codims = [codimension(v) for v in graph.vertices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    lines = ["digraph closure {", "  rankdir=BT;", "  node [shape=box];"]
    for level in sorted(set(codims), reverse=True):
        group = " ".join(f'"{ids[k]}";' for k in order if codims[k] == level)
        lines.append(f"  {{ rank=same; {group} }}")
    lines += [f'  "{ids[k]}" [label="{ids[k]}\\ncodim {codims[k]}"];' for k in order]
    yield "\n".join(lines) + "\n"
    # Edge lines '  "a" -> "b";' are sorted as strings.  No id is a proper
    # prefix of another (each is "zero" or ends in its only ")"), so that is
    # the order of the (a, b) ranks among the distinct sorted ids.  Equal ids
    # share a rank, so their lines tie as equal strings do.  A row of lines
    # with source a is head[a] + head[a].join(their tails).
    uniq = list(dict.fromkeys(ids[k] for k in order))
    rank = dict(zip(uniq, range(len(uniq))))
    head = [f'  "{u}" -> "' for u in uniq]
    tail = [f'{u}";\n' for u in uniq]
    pairs = graph.__dict__.get("_pairs")
    if pairs is not None:
        r = [rank[nid] for nid in ids]
        for a, row in groupby(sorted([(r[i], r[j]) for i, j in pairs]), itemgetter(0)):
            yield head[a] + head[a].join([tail[b] for _, b in row])
    else:
        import numpy as np

        r = np.array([rank[nid] for nid in ids], dtype=np.int64)
        keys = np.sort(r[graph.edges[:, 0]] * len(uniq) + r[graph.edges[:, 1]])
        tail = np.array(tail, dtype=object)
        # 2^16 keys at a time: at 10^4 vertices there are millions
        for start in range(0, len(keys), 1 << 16):
            a, b = np.divmod(keys[start:start + (1 << 16)], len(uniq))
            cuts = (np.flatnonzero(a[1:] != a[:-1]) + 1).tolist()
            tails = tail[b].tolist()
            bounds = [0, *cuts, len(tails)]
            for h, lo, hi in zip(map(head.__getitem__, a[bounds[:-1]].tolist()), bounds, bounds[1:]):
                yield h + h.join(tails[lo:hi])
    yield "}\n"


def to_dot(graph: HasseSubgraph, file=None) -> str | None:
    """Deterministic DOT rendering of the graph's edges (from ``hasse_subgraph``,
    the arrows no 2-step path implies), rank layers grouped by codimension: the
    chunks of ``iter_dot`` joined into one string, or, given a text ``file``,
    written to it as they are made (and None returned)."""
    if file is None:
        return "".join(iter_dot(graph))
    file.writelines(iter_dot(graph))
