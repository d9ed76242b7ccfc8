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
Up to ``_SCALAR_GRAPH_MAX`` (12) vertices, a command line's worth, it calls
``reachable`` on every ordered pair and imports no numpy; past that crossover,
where the scalar path stops being faster even with numpy loaded, it evaluates
the cone, half-plane and +-l predicates that ``reachable`` uses on parameter
arrays, one family block at a time, so its relation is the same bits as n^2
``reachable`` calls; 10^4 vertices, the documented cap, take seconds (figures
in its docstring).
"""

from __future__ import annotations

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


def _relation(verts) -> np.ndarray:
    """R[i, j] = reachable(verts[i], verts[j]) for i != j, one family block at a time.

    Each block reads the vertices' parameters as ``reachable`` reads them and
    applies the same predicates to their arrays, so it rounds as
    ``reachable`` does.
    """
    import numpy as np

    n = len(verts)
    R = np.zeros((n, n), dtype=bool)
    zero, udz, pair, anti, hyp, delta = [], [], [], [], [], []
    for i, v in enumerate(verts):
        if isinstance(v, Zero):
            zero.append(i)
        elif isinstance(v, UnitDirectZero):
            udz.append(i)
        elif isinstance(v, UnitPair):
            pair.append(i)
            if v.antipodal:
                anti.append(i)
        elif isinstance(v, Hyperbolic):
            hyp.append(i)
        elif isinstance(v, DeltaTau):
            delta.append(i)
    R[zero, :] = True
    R[zero, zero] = False
    tr, ti = _parts([verts[j].tau for j in delta])
    if udz:
        lr, li = _parts([verts[i].lam for i in udz])
        lr, li = lr[:, None], li[:, None]
        R[np.ix_(udz, hyp)] = True
        mr, mi = _parts([verts[j].mu for j in pair])
        nr, ni = _parts([verts[j].nu for j in pair])
        R[np.ix_(udz, pair)] = _in_cone(lr, li, mr, mi, nr, ni)
        R[np.ix_(udz, delta)] = _im_lam_conj_tau(lr, li, tr, ti) >= 0.0
    if anti:
        mr, mi = _parts([verts[i].mu for i in anti])
        R[np.ix_(anti, delta)] = _on_line(tr, ti, mr[:, None], mi[:, None])
    return R


# Vertex sets up to this size take the scalar path: n(n - 1) ``reachable``
# calls and a reduction over Python sets.  12 is the last size where it is
# faster than the array path even with numpy already loaded (Intel Xeon,
# Python 3.11, numpy 2.4; medians over 20 random sets of all families):
# hasse_subgraph takes 94 us scalar against 110 us array at 12 vertices,
# 112 against 110 at 13 and 172 against 125 at 16; with to_dot after it,
# 155 against 190 us at 12 and 247 against 217 at 16.
_SCALAR_GRAPH_MAX = 12


def _scalar_graph(verts: tuple[CanonicalForm, ...]) -> HasseSubgraph:
    """The Hasse edges from ``reachable`` on every ordered pair, without numpy.

    An arrow i -> j is dropped when j is a successor of a successor of i.
    """
    n = len(verts)
    succ = [[j for j in range(n) if j != i and reachable(verts[i], verts[j])] for i in range(n)]
    pairs = []
    for i, out in enumerate(succ):
        implied = {k for j in out for k in succ[j]}
        pairs += [(i, j) for j in out if j not in implied]
    return HasseSubgraph._from_pairs(verts, pairs)


def _array_graph(verts: tuple[CanonicalForm, ...]) -> HasseSubgraph:
    """The Hasse edges from ``_relation``, reduced by a float32 product."""
    import numpy as np

    R = _relation(verts)
    # an edge is redundant iff a 2-step path exists inside the relation; only
    # rows with out-arrows hold edges, only vertices with both kinds are steps
    out = R.any(axis=1)
    src = np.flatnonzero(out)
    mid = np.flatnonzero(out & R.any(axis=0))
    Rs = R[src]
    implied = (Rs[:, mid].astype(np.float32) @ R[mid].astype(np.float32)) > 0
    rows, cols = np.nonzero(Rs & ~implied)
    return HasseSubgraph(verts, np.stack((src[rows], cols), axis=1))


def hasse_subgraph(vertices) -> HasseSubgraph:
    """Transitive reduction of the closure order on a finite vertex set.

    An arrow is dropped when a 2-step path implies it; edges are in row-major
    order.  Up to ``_SCALAR_GRAPH_MAX`` (12) vertices, the size a command line
    holds, the relation is n(n - 1) ``reachable`` calls and nothing imports
    numpy; the graph's ``edges`` array is built only when read.  Larger sets
    build the relation one (source family, target family) block at a time with
    the predicates ``reachable`` uses, over parameter arrays, and find 2-step
    paths by a float32 product over the vertices with both in- and out-arrows.
    Both paths give the same edges, bit for bit; the crossover is where the
    scalar path stops being faster even with numpy already loaded.

    Served size, random vertex sets of all families (Intel Xeon, 2 vCPUs,
    Python 3.11, numpy 2.4, one BLAS thread), with ``to_dot`` after it:

        10^3 vertices:  0.02 s + 0.04 s,    51 k edges,  5.7 MB of DOT,   58 MB peak RSS
        10^4 vertices:  2.5 s  + 2.6 s,    4.7 M edges,  514 MB of DOT,  1.1 GB peak RSS

    Time and memory grow with the number of edges, about n^2 / 20; at 10^4
    vertices the peak RSS is 0.39 GB before ``to_dot``.
    """
    verts = tuple(vertices)
    if len(verts) > 10**4:
        raise InvalidInput("at most 10^4 vertices supported")
    if len(set(verts)) != len(verts):
        seen = set()
        for v in verts:
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {format_form(v)}")
            seen.add(v)
    return (_scalar_graph if len(verts) <= _SCALAR_GRAPH_MAX else _array_graph)(verts)


def to_dot(graph: HasseSubgraph) -> str:
    """Deterministic DOT rendering, rank layers grouped by codimension.

    A graph that holds its edges as int pairs sorts them with ``sorted`` and
    imports no numpy; one that holds an array sorts integer keys in numpy.
    """
    ids = [format_form(v) for v in graph.vertices]
    codims = [codimension(v) for v in graph.vertices]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    lines = ["digraph closure {", "  rankdir=BT;", "  node [shape=box];"]
    for level in sorted(set(codims), reverse=True):
        group = " ".join(f'"{ids[k]}";' for k in order if codims[k] == level)
        lines.append(f"  {{ rank=same; {group} }}")
    lines += [f'  "{ids[k]}" [label="{ids[k]}\\ncodim {codims[k]}"];' for k in order]
    chunks = ["\n".join(lines) + "\n"]
    # Edge lines '  "a" -> "b";' are sorted as strings.  No id is a proper
    # prefix of another (each is "zero" or ends in its only ")"), so that is
    # the order of the (a, b) ranks among the distinct sorted ids.  Equal ids
    # share a rank, so their lines tie as equal strings do.
    uniq = list(dict.fromkeys(ids[k] for k in order))
    rank = dict(zip(uniq, range(len(uniq))))
    head = [f'  "{u}" -> "' for u in uniq]
    tail = [f'{u}";\n' for u in uniq]
    pairs = graph.__dict__.get("_pairs")
    if pairs is not None:
        r = [rank[nid] for nid in ids]
        chunks.append("".join([head[a] + tail[b] for a, b in sorted([(r[i], r[j]) for i, j in pairs])]))
    else:
        import numpy as np

        r = np.array([rank[nid] for nid in ids], dtype=np.int64)
        keys = np.sort(r[graph.edges[:, 0]] * len(uniq) + r[graph.edges[:, 1]])
        # joined 2^16 lines at a time: at 10^4 vertices there are millions
        for start in range(0, len(keys), 1 << 16):
            a, b = np.divmod(keys[start:start + (1 << 16)], len(uniq))
            chunks.append("".join([head[i] + tail[j] for i, j in zip(a.tolist(), b.tolist())]))
    chunks.append("}\n")
    return "".join(chunks)
