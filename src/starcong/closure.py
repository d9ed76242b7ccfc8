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
divided by it); nothing here checks them again.  Every geometric test is closed
with one slack, GEOM_TOL = 1e-9, so user-supplied near-boundary parameters
land on the inclusive side.

``hasse_subgraph`` restricts the order to a finite vertex set and emits its
transitive reduction; no covering relation on the infinite poset is claimed.
It evaluates the cone, half-plane and +-l predicates that ``reachable`` uses
on parameter arrays, one family block at a time, so its relation is the same
bits as n^2 ``reachable`` calls; 10^4 vertices, the documented cap, take
seconds (figures in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateVertex, InvalidInput
from .forms import (
    CanonicalForm,
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    format_form,
)
from .stratify import codimension

GEOM_TOL = 1e-9


# --- predicates shared by reachable, hasse_subgraph and the witnesses ----------
#
# Each takes the real and imaginary parts of validated form parameters, as
# Python floats or as broadcastable ndarrays alike, and rounds as CPython's
# complex arithmetic does (its product order, moduli by libm hypot), so a
# vertex set's relation is the same bits from scalars or arrays.  Numpy's
# complex multiply and abs may round differently, so arrays never go through
# them.  The caller chooses between the cone's cases with its own control
# flow (if/else or masks).


def _near(zr, zi, ur, ui):
    """|z - u| <= GEOM_TOL, the modulus rounded as abs(complex) rounds it.

    That is libm hypot, which np.hypot also calls (math.hypot rounds
    differently).
    """
    dr, di = zr - ur, zi - ui
    if isinstance(dr, float):  # numpy's float64 scalar is a float too
        return abs(complex(dr, di)) <= GEOM_TOL
    import numpy as np

    return np.hypot(dr, di) <= GEOM_TOL


def _on_line(zr, zi, ur, ui):
    """z within GEOM_TOL of u or of -u, i.e. on the line u R at unit modulus."""
    return _near(zr, zi, ur, ui) | _near(zr, zi, -ur, -ui)


def _cone_shape(mr, mi, nr, ni):
    """(equal, line, det) of the cone mu R+ + nu R+ of unit generators.

    ``equal``: mu = nu within GEOM_TOL, the cone is the ray mu R+.  ``line``:
    mu = -nu within GEOM_TOL, the cone is the line mu R.  Both can hold;
    ``equal`` takes precedence.  Otherwise the cone is a proper sector and
    det = Im(conj(mu) nu) is the determinant ``_cone_coefficients`` divides
    by; since |det| = |mu - nu| |mu + nu| / 2, it then exceeds about GEOM_TOL.
    """
    equal = _near(mr, mi, nr, ni)
    line = _near(mr, mi, -nr, -ni)
    return equal, line, mr * ni - nr * mi


def _cone_coefficients(lr, li, mr, mi, nr, ni, det):
    """Real a, b with a mu + b nu = lam, for the nonzero det of ``_cone_shape``."""
    a = (lr * ni - nr * li) / det
    b = (mr * li - lr * mi) / det
    return a, b


def _in_sector(a, b):
    return (a >= -GEOM_TOL) & (b >= -GEOM_TOL)


def _half_plane(lr, li, tr, ti):
    """Im(lam conj(tau)) >= -GEOM_TOL, the product in CPython's complex order."""
    return lr * (-ti) + li * tr >= -GEOM_TOL


def _cone_distance(lam: complex, mu: complex, nu: complex) -> float:
    """Euclidean distance from lam to the closed cone mu R+ + nu R+.

    The cone's shape is read as ``reachable`` reads it for udz(lam) ->
    pair(mu, nu), so whenever ``reachable`` refuses that arrow the distance
    is positive.  The converse does not hold: ``reachable`` grants lam up to
    GEOM_TOL outside the cone, where the distance is small but positive.
    """
    lam, mu, nu = lam / abs(lam), mu / abs(mu), nu / abs(nu)

    def ray_dist(p: complex, u: complex) -> float:
        t = max((p * u.conjugate()).real, 0.0)
        return abs(p - t * u)

    equal, line, det = _cone_shape(mu.real, mu.imag, nu.real, nu.imag)
    if equal:
        return ray_dist(lam, mu)
    if line:
        return min(ray_dist(lam, mu), ray_dist(lam, -mu))
    a, b = _cone_coefficients(lam.real, lam.imag, mu.real, mu.imag, nu.real, nu.imag, det)
    if a >= 0.0 and b >= 0.0:
        return 0.0
    return min(ray_dist(lam, mu), ray_dist(lam, nu))


def reachable(source: CanonicalForm, target: CanonicalForm) -> bool:
    """Whether the class of ``source`` is contained in the closure of ``target``."""
    if source == target or isinstance(source, Zero):
        return True
    if isinstance(source, UnitDirectZero):
        lr, li = source.lam.real, source.lam.imag
        if isinstance(target, Hyperbolic):
            return True
        if isinstance(target, UnitPair):
            mr, mi, nr, ni = target.mu.real, target.mu.imag, target.nu.real, target.nu.imag
            equal, line, det = _cone_shape(mr, mi, nr, ni)
            if equal:
                return _near(lr, li, mr, mi)
            if line:
                return _on_line(lr, li, mr, mi)
            return _in_sector(*_cone_coefficients(lr, li, mr, mi, nr, ni, det))
        if isinstance(target, DeltaTau):
            return _half_plane(lr, li, target.tau.real, target.tau.imag)
        return False
    if isinstance(source, UnitPair) and source.antipodal and isinstance(target, DeltaTau):
        return _on_line(target.tau.real, target.tau.imag, source.mu.real, source.mu.imag)
    return False


@dataclass(frozen=True, eq=False)
class HasseSubgraph:
    """Vertices and covering edges: ``edges`` is a read-only (E, 2) int32 array
    of (source, target) indices in row-major order, converted from any sequence
    of pairs.  Graphs compare by identity, as an array takes no part in ``==``.
    """

    vertices: tuple[CanonicalForm, ...]
    edges: np.ndarray

    def __post_init__(self):
        import numpy as np

        edges = np.array(self.edges, dtype=np.int32).reshape(len(self.edges), 2)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)


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
        equal, line, det = _cone_shape(mr, mi, nr, ni)
        a, b = _cone_coefficients(lr, li, mr, mi, nr, ni, np.where(equal | line, 1.0, det))
        R[np.ix_(udz, pair)] = np.where(
            equal, _near(lr, li, mr, mi), np.where(line, _on_line(lr, li, mr, mi), _in_sector(a, b)))
        R[np.ix_(udz, delta)] = _half_plane(lr, li, tr, ti)
    if anti:
        mr, mi = _parts([verts[i].mu for i in anti])
        R[np.ix_(anti, delta)] = _on_line(tr, ti, mr[:, None], mi[:, None])
    return R


def hasse_subgraph(vertices) -> HasseSubgraph:
    """Transitive reduction of the closure order on a finite vertex set.

    The relation is built one (source family, target family) block at a time
    with the predicates ``reachable`` uses, over parameter arrays; an arrow is
    dropped when a 2-step path implies it, found by a float32 product over
    the vertices with both in- and out-arrows.  Edges are in row-major order.

    Served size, random vertex sets of all families (Intel Xeon, 2 vCPUs,
    Python 3.11, numpy 2.4, one BLAS thread), with ``to_dot`` after it:

        10^3 vertices:  0.02 s + 0.04 s,    51 k edges,  5.7 MB of DOT,   58 MB peak RSS
        10^4 vertices:  2.5 s  + 2.6 s,    4.7 M edges,  514 MB of DOT,  1.1 GB peak RSS

    Time and memory grow with the number of edges, about n^2 / 20; at 10^4
    vertices the peak RSS is 0.39 GB before ``to_dot``.
    """
    import numpy as np

    verts = tuple(vertices)
    if len(verts) > 10**4:
        raise InvalidInput("at most 10^4 vertices supported")
    if len(set(verts)) != len(verts):
        seen = set()
        for v in verts:
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {format_form(v)}")
            seen.add(v)
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


def to_dot(graph: HasseSubgraph) -> str:
    """Deterministic DOT rendering, rank layers grouped by codimension."""
    import numpy as np

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
    r = np.array([rank[nid] for nid in ids], dtype=np.int64)
    keys = np.sort(r[graph.edges[:, 0]] * len(uniq) + r[graph.edges[:, 1]])
    head = [f'  "{u}" -> "' for u in uniq]
    tail = [f'{u}";\n' for u in uniq]
    # joined 2^16 lines at a time: at 10^4 vertices there are millions
    for start in range(0, len(keys), 1 << 16):
        a, b = np.divmod(keys[start:start + (1 << 16)], len(uniq))
        chunks.append("".join([head[i] + tail[j] for i, j in zip(a.tolist(), b.tolist())]))
    chunks.append("}\n")
    return "".join(chunks)
