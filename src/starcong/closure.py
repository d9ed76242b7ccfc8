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
Only udz vertices and antipodal pairs have arrows both in and out, so each
source's row is read off the three layers (``_rows``; the rule is in
``hasse_subgraph``), with no n x n relation.  The udz rows come from
``reachable`` calls up to ``_SCALAR_GRAPH_MAX`` (12) vertices, with no numpy,
and past that from the same predicates on parameter arrays, a bounded block at
a time.  Rows are computed when the graph is read and ``to_dot`` writes each as
it is made: 10^4 vertices, the documented cap, take a second and tens of MB.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from heapq import merge
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
    """Whether the class of ``source`` is contained in the closure of ``target``.

    Reflexivity is tested last, where only targets of the source's own family
    remain (and zero is already True): on forms of different families ``==``
    costs two ``__eq__`` calls before it falls back to identity.  A non-form or
    bare ``CanonicalForm`` on either side raises InvalidInput, checked there and
    on the zero path; the other branches answer only for a target of their class.
    """
    if isinstance(source, Zero) and isinstance(target, CanonicalForm) and target.family is not None:
        return True
    if isinstance(source, UnitDirectZero):
        lr, li = source.lam.real, source.lam.imag
        if isinstance(target, Hyperbolic):
            return True
        if isinstance(target, UnitPair):
            return _in_cone(lr, li, target.mu.real, target.mu.imag, target.nu.real, target.nu.imag)
        if isinstance(target, DeltaTau):
            return _im_lam_conj_tau(lr, li, target.tau.real, target.tau.imag) >= 0.0
    elif isinstance(source, UnitPair) and source.antipodal and isinstance(target, DeltaTau):
        return _on_line(target.tau.real, target.tau.imag, source.mu.real, source.mu.imag)
    valid = isinstance(source, CanonicalForm) and source.family is not None
    if valid and isinstance(target, CanonicalForm) and target.family is not None:
        return source == target
    raise InvalidInput(f"not a canonical form: {target if valid else source!r}")


def _edge_array(edges, n: int) -> np.ndarray:
    """``edges`` as a read-only (E, 2) int32 array of indices into n vertices."""
    import numpy as np

    edges = np.asarray(edges).reshape(len(edges), 2)
    # checked before narrowing, where 2^33 would wrap to 0 and 1.9 truncate to 1
    if edges.size and (edges.dtype.kind not in "iu" or ((edges < 0) | (edges >= n)).any()):
        raise ValueError(f"edge index not an integer in [0, {n})")
    edges = edges.astype(np.int32)
    edges.flags.writeable = False
    return edges


class HasseSubgraph(_Record):
    """Vertices and covering edges: ``vertices`` is a tuple and ``edges`` a
    read-only (E, 2) int32 array of (source, target) indices, converted from
    any sequence of integer pairs in ``range(len(vertices))`` (else
    ValueError).  Graphs compare by identity, as an array takes no part in ``==``.

    From ``hasse_subgraph``, the edges are the arrows no 2-step path implies,
    in row-major order, computed (``_rows``) when the graph is read: their
    targets gathered row by row, then copied once into the array, 12 bytes an
    edge at the peak (10^4 bench-set vertices: 4.8 M edges, a 36 MB array,
    98 MB peak RSS).
    """

    __match_args__ = ("vertices", "edges")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, vertices, edges):
        d = self.__dict__
        d["vertices"] = tuple(vertices)
        d["_edges"] = _edge_array(edges, len(d["vertices"]))

    @property
    def edges(self) -> np.ndarray:
        d = self.__dict__
        if "_edges" not in d:
            import numpy as np

            heads, dst = self._index_rows()
            targets = np.frombuffer(dst, dtype=np.int32)
            edges = np.empty((len(dst), 2), dtype=np.int32)  # its indices are in range by construction
            at = 0
            for s, lo, n in heads:
                edges[at:at + n, 0] = s
                edges[at:at + n, 1] = targets[lo:lo + n]
                at += n
            edges.flags.writeable = False
            d["_edges"] = edges
        return d["_edges"]

    def _index_rows(self) -> tuple[list, array]:
        """The rows of a graph from ``hasse_subgraph`` in index order, 4 bytes an
        edge: their targets, row after row, in one ``array('i')``, and the
        (source, offset, length) of each row.  Zero's row, which ``_rows``
        yields last, goes where its source splits the others'."""
        heads, dst = [], array("i")
        for s, out in _rows(self.vertices, self._families, range(len(self.vertices))):
            heads.append((s, len(dst), len(out)))
            dst.fromlist(out)
        if heads:
            heads.insert(bisect(heads, heads[-1][0], hi=len(heads) - 1, key=itemgetter(0)), heads.pop())
        return heads, dst

    def __reduce__(self):
        # rebuilt through the constructor, so a copy's edges are read-only too
        return HasseSubgraph, (self.vertices, self.edges)


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


# Vertex sets up to this size take their udz rows from ``reachable`` calls,
# with no numpy; larger ones from parameter arrays.  12 is the documented
# numpy-free size; with numpy loaded the loop is as fast up to about 24
# vertices (hasse_subgraph + to_dot on bench sets, Xeon, Python 3.11, numpy
# 2.4, medians of 3 batches: 93-161 against 166-315 us at 12, 212-293 against
# 240-255 at 24, 626-683 against 356-369 at 48).
_SCALAR_GRAPH_MAX = 12
# (udz source, target) lanes per array block: a few MB of temporaries at any size.
_LANES = 1 << 16


def _rows(verts, families, pos):
    """The Hasse edges of ``verts`` as rows (pos[i], [pos[j], ...]): each
    source i with out-arrows and its targets j, in increasing ``pos``, which
    numbers the vertices without ties (index for ``edges``, DOT id rank for
    ``iter_dot``), but zero's row last, as it needs the others' targets.  By
    ``hasse_subgraph``'s rule, an antipodal pair's row is the deltas on its
    line, a udz's is hyp, the pairs in its cone and the deltas in its
    half-plane whose antipodal pair it does not reach, and zero's is every
    vertex no other vertex enters.
    """
    zero, udz, pair, anti, hyp, delta = families
    key = pos.__getitem__
    by_tau = {}
    for j in delta:
        by_tau.setdefault(verts[j].tau, []).append(j)  # _on_line is == on the stored doubles
    line = {k: by_tau.get(verts[k].mu, []) + by_tau.get(-verts[k].mu, []) for k in anti}
    entered = {j for js in line.values() for j in js}  # the udz rows add theirs
    anti_rows = ((pos[k], sorted(map(key, line[k]))) for k in sorted(anti, key=key) if line[k])
    udz_rows = (_udz_loop if len(verts) <= _SCALAR_GRAPH_MAX or not udz else _udz_blocks)(
        verts, families, line, pos, entered)
    yield from merge(anti_rows, udz_rows, key=itemgetter(0))
    for i in zero:
        out = sorted(pos[j] for j in range(len(verts)) if j != i and j not in entered)
        if out:
            yield pos[i], out


def _udz_loop(verts, families, line, pos, entered):
    """``_rows``' udz rows from ``reachable``, adding their targets to ``entered``."""
    _, udz, pair, _, hyp, delta = families
    for i in sorted(udz, key=pos.__getitem__):
        cone = [j for j in pair if reachable(verts[i], verts[j])]
        implied = {j for k in cone for j in line.get(k, ())}
        out = hyp + cone + [j for j in delta if j not in implied and reachable(verts[i], verts[j])]
        entered.update(out)
        if out:
            yield pos[i], sorted(map(pos.__getitem__, out))


def _udz_blocks(verts, families, line, pos, entered):
    """``_udz_loop``'s rows from the predicates ``reachable`` uses, applied to
    parameter arrays, at most ``_LANES`` lanes a block."""
    _, udz, pair, _, hyp, delta = families
    import numpy as np

    cols = sorted(hyp + pair + delta, key=pos.__getitem__)  # the targets, a column each
    col = {j: c for c, j in enumerate(cols)}
    pair_c, delta_c = [col[j] for j in pair], [col[j] for j in delta]
    links = [(col[k], col[j]) for k, js in line.items() for j in js]
    kc, dc = np.array(links, dtype=np.intp).reshape(-1, 2).T  # antipodal pair kc[m] reaches delta dc[m]
    (mr, mi), (nr, ni) = _parts([verts[j].mu for j in pair]), _parts([verts[j].nu for j in pair])
    tr, ti = _parts([verts[j].tau for j in delta])
    keys = np.array([pos[j] for j in cols], dtype=np.int64)
    hit = np.zeros(len(cols), dtype=bool)
    order = sorted(udz, key=pos.__getitem__)
    step = max(1, _LANES // max(1, len(cols)))
    for start in range(0, len(order), step):
        block = order[start:start + step]
        lr, li = (x[:, None] for x in _parts([verts[i].lam for i in block]))
        mask = np.ones((len(block), len(cols)), dtype=bool)  # every hyp column
        mask[:, pair_c] = _in_cone(lr, li, mr, mi, nr, ni)
        mask[:, delta_c] = _im_lam_conj_tau(lr, li, tr, ti) >= 0.0
        np.logical_and.at(mask, (slice(None), dc), ~mask[:, kc])  # drop what a reached antipodal pair implies
        hit |= mask.any(axis=0)
        r, c = np.nonzero(mask)
        targets = keys[c].tolist()
        cuts = np.searchsorted(r, np.arange(len(block) + 1)).tolist()
        for i, lo, hi in zip(block, cuts, cuts[1:]):
            if lo < hi:
                yield pos[i], targets[lo:hi]
    entered.update(j for j, h in zip(cols, hit.tolist()) if h)


def _sorted_rows(edges: np.ndarray, pos):
    """The rows of an edge array keyed by ``pos``, ties merged: its
    (pos[source], pos[target]) keys sorted once."""
    import numpy as np

    p = np.array(pos, dtype=np.int64)
    a, b = np.divmod(np.sort(p[edges[:, 0]] * len(p) + p[edges[:, 1]]), max(len(p), 1))
    starts = np.flatnonzero(np.diff(a, prepend=-1)).tolist()
    for s, lo, hi in zip(a[starts].tolist(), starts, starts[1:] + [len(a)]):
        yield s, b[lo:hi].tolist()


def hasse_subgraph(vertices) -> HasseSubgraph:
    """Transitive reduction of the closure order on a finite vertex set.

    An arrow i -> j is dropped when a 2-step path i -> k -> j implies it;
    edges are in row-major order.  Zero has no in-arrow and hyp, delta and the
    non-antipodal pairs have no out-arrow, so k is udz (and i zero) or an
    antipodal pair (and i zero or udz, j delta).  An arrow is therefore
    implied exactly when

        i is zero, and j has an in-arrow from a non-zero vertex, or
        i is udz, j is delta, and i -> k -> j for an antipodal pair k.

    Each row is read off the three layers (``_rows``) and the rule is tested
    on the arrows as computed, so the result is the reduction of that relation
    whatever its rounding, with no transitivity assumed, no matrix product and
    no n x n relation.  The graph computes its rows when it is read.

    Served size, bench sets of all families (a tenth antipodal pairs with
    their deltas; Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, one BLAS
    thread), ``to_dot`` to a file, then to one string:

        10^3 vertices:  0.02 s,   44 k edges,  5.0 MB of DOT,  31 MB peak RSS (40 MB)
        10^4 vertices:  0.64 s,  4.7 M edges,  516 MB of DOT,  47 MB peak RSS (1.4 s, 1.03 GB)

    Time grows with the number of edges, about n^2 / 20; written to a file,
    as ``starcong graph`` writes it, memory grows with n alone.
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
    graph = HasseSubgraph.__new__(HasseSubgraph)
    graph.__dict__.update(vertices=verts, _families=families)  # its rows are computed when it is read
    return graph


def iter_dot(graph: HasseSubgraph) -> Iterator[str]:
    """``to_dot(graph)`` in chunks: the header, rank layers and labels in one,
    then the edge lines of one source vertex at a time, then the closing brace.

    Edge lines are ordered by the (source, target) ranks of their ids: a
    graph from ``hasse_subgraph`` computes its rows in that order, and one
    built from an edge list sorts its rank keys once.
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
    # with source a is head[a] + head[a].join(their tails).  "zero" ranks
    # after every other id, so zero's row, which ``_rows`` yields last, is last.
    uniq = list(dict.fromkeys(ids[k] for k in order))
    rank = dict(zip(uniq, range(len(uniq))))
    head = [f'  "{u}" -> "' for u in uniq]
    tail = [f'{u}";\n' for u in uniq]
    r = [rank[nid] for nid in ids]
    families = graph.__dict__.get("_families")
    rows = _sorted_rows(graph.edges, r) if families is None else _rows(graph.vertices, families, r)
    for a, row in rows:
        yield head[a] + head[a].join([tail[b] for b in row])
    yield "}\n"


def to_dot(graph: HasseSubgraph, file=None) -> str | None:
    """Deterministic DOT rendering of the graph's edges (from ``hasse_subgraph``,
    the arrows no 2-step path implies), rank layers grouped by codimension: the
    chunks of ``iter_dot`` joined into one string, or, given a text ``file``,
    written to it as they are made (and None returned)."""
    if file is None:
        return "".join(iter_dot(graph))
    file.writelines(iter_dot(graph))
