import io
import math
import pickle
import re

import numpy as np
import pytest

from starcong import (
    ArrowExists,
    CanonicalForm,
    DeltaTau,
    DuplicateVertex,
    Hyperbolic,
    InvalidInput,
    UnitDirectZero,
    UnitPair,
    Zero,
    codimension,
    format_form,
    hasse_subgraph,
    iter_dot,
    no_arrow_certificate,
    parse_form,
    reachable,
    to_dot,
)
from starcong import closure
from starcong.closure import HasseSubgraph
from starcong.rng import SplitMix64


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def in_cone(lam, mu, nu):
    return reachable(UnitDirectZero(lam), UnitPair(mu, nu))


def half_plane_ok(lam, tau):
    return reachable(UnitDirectZero(lam), DeltaTau(tau))


def test_in_cone_examples():
    c = unit(np.pi / 4)
    assert in_cone(1, c, np.conj(c))            # a = b = 1/sqrt(2)
    assert not in_cone(-1, c, np.conj(c))       # solution is negative
    for nu in (1j, unit(2.2), -1):
        assert in_cone(unit(0.4), unit(0.4), nu)  # a=1, b=0
    assert not in_cone(1, 1j, 1j)               # degenerate cone i R+


def test_in_cone_degenerate_line():
    assert in_cone(1, 1j, -1j) is False
    assert in_cone(1j, 1j, -1j)
    assert in_cone(-1j, 1j, -1j)


def test_cone_distance():
    cone_distance = closure._cone_distance
    assert cone_distance(1, 1j, 1j) == pytest.approx(1.0)
    assert cone_distance(1, unit(np.pi / 4), unit(-np.pi / 4)) == 0.0
    assert cone_distance(-1, 1j, -1j) == pytest.approx(1.0)  # line i R
    # outside a sector: the nearest point is on a bounding ray
    d = cone_distance(-1, unit(0.3), unit(-0.3))
    assert d == pytest.approx(abs(-1 - 0 * unit(0.3)))


def test_half_plane_examples():
    assert half_plane_ok(1, -1j)       # Im(i) = 1
    assert not half_plane_ok(1, 1j)    # Im(-i) = -1
    for t in (1, 1j, unit(2.0)):
        assert half_plane_ok(t, t)     # boundary Im = 0 included


def test_reachable_examples():
    assert reachable(Zero(), DeltaTau(unit(np.pi / 3)))
    assert reachable(UnitDirectZero(1), UnitPair(unit(np.pi / 4), unit(-np.pi / 4)))
    assert not reachable(UnitDirectZero(1), DeltaTau(1j))
    assert reachable(UnitPair(1, -1), DeltaTau(-1))
    assert not reachable(UnitPair(1, -1), DeltaTau(1j))
    assert not reachable(UnitPair(1j, 1j), Hyperbolic(0.5))
    assert reachable(UnitDirectZero(unit(0.7)), Hyperbolic(0.99 * unit(2.0)))
    assert reachable(UnitDirectZero(unit(0.7)), UnitPair(unit(0.7), unit(0.7)))
    assert reachable(UnitDirectZero(unit(0.7)), UnitPair(unit(0.7), -unit(0.7)))
    assert not reachable(UnitDirectZero(1), UnitDirectZero(1j))
    assert not reachable(DeltaTau(1), Hyperbolic(0.1))
    assert not reachable(UnitPair(1, unit(1.0)), DeltaTau(1))


def test_reachable_lazy_path():
    for form in (Zero(), UnitDirectZero(1j), UnitPair(1, -1), Hyperbolic(0.3), DeltaTau(-1)):
        assert reachable(form, form)


@pytest.mark.parametrize("source, target, bad", [
    (Zero(), None, None), (3, 3, 3), (CanonicalForm(), CanonicalForm(), CanonicalForm()),
    (Zero(), CanonicalForm(), CanonicalForm()), (None, Zero(), None), (UnitDirectZero(1), "x", "x"),
    (UnitPair(1, -1), None, None), (Hyperbolic(0.3), 3, 3), ("x", DeltaTau(1), "x"),
])
def test_reachable_refuses_non_forms(source, target, bad):
    # the zero path and the reflexive fall-through check both sides; an equal
    # pair of non-forms or of bare CanonicalForms is no arrow either
    with pytest.raises(InvalidInput, match=rf"^not a canonical form: {re.escape(repr(bad))}$"):
        reachable(source, target)


def random_form(rng: SplitMix64):
    kind = int(rng.uniform() * 5)
    t1 = 2 * np.pi * rng.uniform()
    t2 = 2 * np.pi * rng.uniform()
    if kind == 0:
        return Zero()
    if kind == 1:
        return UnitDirectZero(unit(t1))
    if kind == 2:
        choice = rng.uniform()
        if choice < 0.25:
            return UnitPair(unit(t1), unit(t1))
        if choice < 0.5:
            return UnitPair(unit(t1), -unit(t1))
        return UnitPair(unit(t1), unit(t2))
    if kind == 3:
        return Hyperbolic(0.95 * rng.uniform() * unit(t1))
    return DeltaTau(unit(t1))


def test_partial_order_properties():
    rng = SplitMix64(2024)
    for _ in range(1200):
        a, b, c = random_form(rng), random_form(rng), random_form(rng)
        assert reachable(a, a)
        if a != b and reachable(a, b):
            assert not reachable(b, a)  # antisymmetry
        if reachable(a, b) and reachable(b, c):
            assert reachable(a, c), (a, b, c)  # transitivity


def test_transitive_coherence_through_antipodal_pair():
    for k in range(40):
        lam = unit(0.157 * k + 0.01)
        for tau in (lam, -lam):
            assert reachable(UnitDirectZero(lam), UnitPair(lam, -lam))
            assert reachable(UnitPair(lam, -lam), DeltaTau(tau))
            assert reachable(UnitDirectZero(lam), DeltaTau(tau))


def codim_monotone(source, target):
    """Every arrow strictly decreases codimension."""
    return source == target or not reachable(source, target) or codimension(source) > codimension(target)


def test_codim_monotone_examples():
    assert codim_monotone(UnitDirectZero(1), Hyperbolic(0))
    assert codim_monotone(Zero(), DeltaTau(1))
    assert codim_monotone(Hyperbolic(0.1), Hyperbolic(0.2))


def test_codim_monotone_random():
    # no_arrow_certificate refuses codim(source) <= codim(target) before it
    # asks reachable, so this must hold on every pair it can be given: the
    # random streams of both test modules, the seven classes and the ladders
    # on both sides of every edge of the order
    from test_perturb import random_form as certificate_form

    rng, other = SplitMix64(5), SplitMix64(99)
    pairs = [(random_form(rng), random_form(rng)) for _ in range(300)]
    pairs += [(certificate_form(other), certificate_form(other)) for _ in range(2000)]
    seven = seven_class_set()
    pairs += [(s, t) for s in seven for t in seven]
    ladder = SplitMix64(2026)
    for _ in range(4):
        pairs += edge_ladder(ladder)
    assert all(codim_monotone(a, b) for a, b in pairs)
    assert sum(a != b and reachable(a, b) for a, b in pairs) > 500


def edge_tuples(g):
    return tuple(map(tuple, g.edges.tolist()))


def test_hasse_three_chain():
    g = hasse_subgraph([Zero(), UnitDirectZero(1), Hyperbolic(0)])
    assert edge_tuples(g) == ((0, 1), (1, 2))  # the direct zero->hyp edge is reduced away


def test_hasse_two_vertices():
    g = hasse_subgraph([Zero(), DeltaTau(1)])
    assert edge_tuples(g) == ((0, 1),)


def seven_class_set():
    c = complex(2**-0.5, 2**-0.5)
    return [
        parse_form("zero"),
        parse_form("udz(1)"),
        parse_form("pair(1,1)"),
        parse_form("pair(1,-1)"),
        UnitPair(c, np.conj(c)),
        parse_form("hyp(0.3)"),
        parse_form("delta(1)"),
    ]


def test_hasse_seven_class_set():
    verts = seven_class_set()
    g = hasse_subgraph(verts)
    # full relation: zero -> all 6, udz(1) -> the five above it,
    # pair(1,-1) -> delta(1); reduction removes every 2-step shortcut,
    # leaving zero->udz, udz->{both 4-codim pairs, generic pair, hyp},
    # and pair(1,-1)->delta(1)
    names = {0: "zero", 1: "udz", 2: "p11", 3: "p1m1", 4: "pgen", 5: "hyp", 6: "delta"}
    edges = {(names[i], names[j]) for i, j in edge_tuples(g)}
    assert edges == {
        ("zero", "udz"),
        ("udz", "p11"),
        ("udz", "p1m1"),
        ("udz", "pgen"),
        ("udz", "hyp"),
        ("p1m1", "delta"),
    }


def test_hasse_reduction_idempotent():
    verts = seven_class_set()
    g = hasse_subgraph(verts)
    # no remaining edge is implied by a 2-step path within the reduced set
    reduced = set(edge_tuples(g))
    for i, j in reduced:
        for k in range(len(verts)):
            if k not in (i, j):
                assert not ((i, k) in reduced and (k, j) in reduced)


def test_hasse_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        hasse_subgraph([Zero(), Zero()])


@pytest.mark.parametrize("bad", ["x", CanonicalForm()])
def test_hasse_rejects_non_forms(bad):
    # the vertices are bucketed by family on both sides of the size that picks
    # the udz path (12) and before the duplicate check formats a repeated vertex
    forms = [Zero()] + [UnitDirectZero(unit(k)) for k in range(11)]
    for verts in ([bad], forms + [bad], [bad, bad], forms + [bad, bad]):
        with pytest.raises(InvalidInput, match=r"^not a canonical form: "):
            hasse_subgraph(verts)


def test_isolated_nodes():
    g = hasse_subgraph([Hyperbolic(0.1), Hyperbolic(0.2)])
    assert edge_tuples(g) == ()


def test_dot_output_shape():
    dot = to_dot(hasse_subgraph(seven_class_set()))
    assert dot.startswith("digraph closure {")
    assert dot.endswith("}\n")
    assert '"zero" [label="zero\\ncodim 8"];' in dot
    assert '"udz(1)" -> "hyp(0.29999999999999999)";' in dot
    # deterministic: input order must not matter
    dot2 = to_dot(hasse_subgraph(list(reversed(seven_class_set()))))
    assert dot == dot2


# --- hasse_subgraph against the scalar predicates -------------------------------

LADDER = range(3, 16)  # 10^-k off a boundary


def ladder_set(rng: SplitMix64):
    """Anchors plus vertices 10^-k on both sides of the antipodal, equal,
    cone-edge, half-plane-edge and +-lambda boundaries."""
    ma, me, mc, th = (unit(2 * np.pi * rng.uniform()) for _ in range(4))
    nc = mc * unit(0.3 + 2.5 * rng.uniform())
    verts = [Zero(), DeltaTau(ma), DeltaTau(-ma), UnitDirectZero(me), UnitPair(mc, nc), DeltaTau(th),
             UnitPair(ma, -ma), UnitPair(me, me)]
    for k in LADDER:
        for eps in (10.0**-k, -(10.0**-k)):
            verts += [
                UnitPair(ma, -ma * unit(eps)),
                UnitPair(me, me * unit(eps)),
                UnitDirectZero(mc * unit(-eps)),
                UnitDirectZero(th * unit(-eps)),
                UnitDirectZero(ma * unit(eps)),
                DeltaTau(-ma * unit(eps)),
            ]
    return verts


def random_set(rng: SplitMix64, n: int):
    verts = {}
    while len(verts) < n:
        verts.setdefault(random_form(rng))
    return list(verts)


def brute_force(verts):
    """(relation, row-major Hasse edges) from per-pair reachable calls."""
    n = len(verts)
    R = np.array([[i != j and reachable(verts[i], verts[j]) for j in range(n)] for i in range(n)])
    edges = tuple(
        (i, j) for i in range(n) for j in range(n)
        if R[i, j] and not any(R[i, k] and R[k, j] for k in range(n)))
    return R, edges


def relation(verts):
    """R[i, j] = reachable(verts[i], verts[j]) for i != j, from the predicates
    ``reachable`` uses applied to parameter arrays, one family block at a time:
    the reference the reduction rule is checked against."""
    verts = tuple(verts)
    zero, udz, pair, anti, hyp, delta = closure._families(verts)
    R = np.zeros((len(verts), len(verts)), dtype=bool)
    R[zero, :] = True
    R[zero, zero] = False
    tr, ti = closure._parts([verts[j].tau for j in delta])
    if udz:
        u = np.array(udz)[:, None]
        lr, li = (x[:, None] for x in closure._parts([verts[i].lam for i in udz]))
        R[u, hyp] = True
        mr, mi = closure._parts([verts[j].mu for j in pair])
        nr, ni = closure._parts([verts[j].nu for j in pair])
        R[u, pair] = closure._in_cone(lr, li, mr, mi, nr, ni)
        R[u, delta] = closure._im_lam_conj_tau(lr, li, tr, ti) >= 0.0
    if anti:
        mr, mi = closure._parts([verts[i].mu for i in anti])
        R[np.array(anti)[:, None], delta] = closure._on_line(tr, ti, mr[:, None], mi[:, None])
    return R


def udz_paths(monkeypatch):
    """Yield "loop", then "blocks", with every udz row computed by that path
    whatever the size, then restore the size split."""
    size = closure._SCALAR_GRAPH_MAX
    for path, scalar_max in (("loop", 10**4), ("blocks", -1)):
        monkeypatch.setattr(closure, "_SCALAR_GRAPH_MAX", scalar_max)
        yield path
    monkeypatch.setattr(closure, "_SCALAR_GRAPH_MAX", size)


def reference_array_graph(verts):
    """The 0.13.0 array path: 2-step paths found by a float32 product over
    the vertices with both in- and out-arrows."""
    R = relation(verts)
    out = R.any(axis=1)
    src = np.flatnonzero(out)
    mid = np.flatnonzero(out & R.any(axis=0))
    Rs = R[src]
    implied = (Rs[:, mid].astype(np.float32) @ R[mid].astype(np.float32)) > 0
    rows, cols = np.nonzero(Rs & ~implied)
    return HasseSubgraph(verts, np.stack((src[rows], cols), axis=1))


def reference_to_dot(graph):
    """``to_dot`` as written before its edge lines were ordered by integer rank."""
    ids = [format_form(v) for v in graph.vertices]
    codims = [codimension(v) for v in graph.vertices]
    lines = ["digraph closure {", "  rankdir=BT;", "  node [shape=box];"]
    for level in sorted(set(codims), reverse=True):
        members = sorted(ids[i] for i in range(len(ids)) if codims[i] == level)
        group = " ".join(f'"{m}";' for m in members)
        lines.append(f"  {{ rank=same; {group} }}")
    for nid, cd in sorted(zip(ids, codims)):
        lines.append(f'  "{nid}" [label="{nid}\\ncodim {cd}"];')
    lines.extend(sorted(f'  "{ids[i]}" -> "{ids[j]}";' for i, j in edge_tuples(graph)))
    lines += ["}", ""]
    return "\n".join(lines)


def test_hasse_matches_brute_force():
    rng = SplitMix64(77)
    sets = [ladder_set(rng) for _ in range(3)]
    sets += [random_set(rng, 60) for _ in range(3)]
    sets += [ladder_set(rng) + random_set(rng, 40)]
    for verts in sets:
        verts = list(dict.fromkeys(verts))
        R, edges = brute_force(verts)
        assert np.array_equal(relation(verts), R)
        g = hasse_subgraph(verts)
        assert edge_tuples(g) == edges
        assert to_dot(g) == to_dot(HasseSubgraph(tuple(verts), edges)) == reference_to_dot(g)


def test_reduction_rule_matches_the_float32_product():
    # the two-case rule drops the arrows the 0.13.0 matrix product dropped
    rng = SplitMix64(34)
    sets = [random_set(rng, 240) for _ in range(3)]
    sets += [list(dict.fromkeys(ladder_set(rng) + random_set(rng, 80))) for _ in range(3)]
    for verts in map(tuple, sets):
        g, ref = hasse_subgraph(verts), reference_array_graph(verts)
        assert np.array_equal(g.edges, ref.edges)
        assert to_dot(g) == to_dot(ref) == reference_to_dot(ref)
    verts = tuple(random_set(rng, 4000))
    g, ref = hasse_subgraph(verts), reference_array_graph(verts)
    assert len(g.edges) > 1 << 16  # its udz rows span many blocks of _LANES lanes
    assert np.array_equal(g.edges, ref.edges)
    assert to_dot(g) == to_dot(ref)


def test_iter_dot_chunks(monkeypatch):
    # the header once, then one chunk per source row, then the closing brace,
    # with the udz rows from either path and from the graph's edges alike
    chunk_lists = []
    for _ in udz_paths(monkeypatch):
        g = hasse_subgraph(seven_class_set())
        chunk_lists += [list(iter_dot(g)), list(iter_dot(HasseSubgraph(g.vertices, g.edges)))]
        out = io.StringIO()
        assert to_dot(g, out) is None and out.getvalue() == "".join(chunk_lists[-1])
    chunks = chunk_lists[0]
    assert all(c == chunks for c in chunk_lists)
    assert "".join(chunks) == to_dot(g)
    assert chunks[0].endswith('"zero" [label="zero\\ncodim 8"];\n') and chunks[-1] == "}\n"
    rows = chunks[1:-1]
    assert [row.split('"')[1] for row in rows] == ["pair(1,-1)", "udz(1)", "zero"]
    assert all(len({line.split(" -> ")[0] for line in row.splitlines()}) == 1 for row in rows)


def test_scalar_and_array_paths_agree(monkeypatch):
    # every prefix of three sets, one with a udz -> delta arrow that an
    # antipodal pair implies, across the size that selects the udz path: the
    # Python loop and the numpy blocks both give brute_force's edges, pair
    # list and DOT, as does a graph built from those edges; each pickles to
    # the same edges before and after they are read
    rng = SplitMix64(31)
    sizes = range(closure._SCALAR_GRAPH_MAX + 4)
    blocks = []
    udz_blocks = closure._udz_blocks
    monkeypatch.setattr(closure, "_udz_blocks", lambda *args: blocks.append(1) or udz_blocks(*args))
    bases = (ladder_set(rng), random_set(rng, sizes[-1]), list(dict.fromkeys(seven_class_set() + random_set(rng, 9))))
    for base in bases:
        for n in sizes:
            verts = tuple(base[:n])
            _, edges = brute_force(verts)
            built = HasseSubgraph(verts, edges)
            dot = reference_to_dot(built)
            blocks.clear()
            assert to_dot(hasse_subgraph(verts)) == dot
            assert bool(blocks) == (n > closure._SCALAR_GRAPH_MAX)  # the size selects the path
            reprs = {repr(built)}
            for _ in udz_paths(monkeypatch):
                g = hasse_subgraph(verts)
                assert g.vertices == verts and to_dot(g) == dot and list(iter_dot(g)) == list(iter_dot(built))
                assert g._pair_list() == list(edges)
                unread = pickle.loads(pickle.dumps(g))  # before its edges are read
                assert edge_tuples(g) == edges and g.edges.dtype == np.int32 and g.edges.shape == (len(edges), 2)
                assert not g.edges.flags.writeable and to_dot(g) == dot
                reprs.add(repr(g))
                for twin in (unread, pickle.loads(pickle.dumps(g)), pickle.loads(pickle.dumps(built))):
                    assert type(twin) is HasseSubgraph and twin.vertices == verts
                    assert edge_tuples(twin) == edges and not twin.edges.flags.writeable
                    assert to_dot(twin) == dot
            assert len(reprs) == 1


def test_hasse_small_and_sparse_sets():
    assert edge_tuples(hasse_subgraph([])) == ()
    assert to_dot(hasse_subgraph([])) == "digraph closure {\n  rankdir=BT;\n  node [shape=box];\n}\n"
    for v in (Zero(), UnitDirectZero(1j), UnitPair(1, -1), Hyperbolic(0.2), DeltaTau(1)):
        assert edge_tuples(hasse_subgraph([v])) == ()
    # a single family: no arrows at all
    assert edge_tuples(hasse_subgraph([UnitDirectZero(unit(0.1 * k)) for k in range(5)])) == ()
    assert edge_tuples(hasse_subgraph([DeltaTau(unit(0.1 * k)) for k in range(5)])) == ()
    # no udz: zero's arrows and the antipodal pair's; zero -> delta(1) goes through pair(1,-1)
    verts = [UnitPair(1, -1), DeltaTau(1), DeltaTau(1j), Zero(), UnitPair(1, 1j)]
    assert edge_tuples(hasse_subgraph(verts)) == ((0, 1), (3, 0), (3, 2), (3, 4))
    # no antipodal pair: chains have length 2 at most
    verts = [UnitDirectZero(1), Zero(), DeltaTau(-1j), UnitPair(1, 1j), DeltaTau(1j)]
    assert edge_tuples(hasse_subgraph(verts)) == ((0, 2), (0, 3), (1, 0), (1, 4))
    # no intermediate vertex: nothing is reduced
    assert edge_tuples(hasse_subgraph([UnitDirectZero(1), Hyperbolic(0.5), DeltaTau(-1j)])) == ((0, 1), (0, 2))


def test_dot_matches_reference():
    graphs = [hasse_subgraph([]), HasseSubgraph((), ())]
    graphs += [hasse_subgraph([v]) for v in (Zero(), UnitDirectZero(1j), UnitPair(1, -1), Hyperbolic(0.2), DeltaTau(1))]
    g = hasse_subgraph(seven_class_set())
    graphs += [g, HasseSubgraph(g.vertices, edge_tuples(g))]
    # duplicate vertices, built by hand: equal ids must keep the string order
    graphs.append(HasseSubgraph((DeltaTau(1), DeltaTau(1), Hyperbolic(0.5), Zero()), ((1, 2), (0, 3))))
    # more edges than one chunk of to_dot's edge lines, given in no order
    verts = random_set(SplitMix64(5), 400)
    graphs.append(HasseSubgraph(tuple(verts), [(i, j) for i in range(400) for j in range(400) if (7 * i + 3 * j) % 2]))
    for g in graphs:
        assert to_dot(g) == reference_to_dot(g)


def test_edges_are_a_read_only_int32_array():
    g = hasse_subgraph(seven_class_set())
    assert g.edges.shape == (6, 2)
    assert g.edges.dtype == np.int32
    assert edge_tuples(g) == tuple(sorted(edge_tuples(g)))  # row-major
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    pairs = np.array(g.edges)
    h = HasseSubgraph(g.vertices, pairs)
    pairs[0, 0] = 5  # the graph keeps its own copy
    assert edge_tuples(h) == edge_tuples(g)
    assert h != g  # graphs compare by identity
    for edges in ((), [], np.zeros((0, 2), dtype=np.int64)):
        empty = HasseSubgraph((Zero(),), edges)
        assert empty.edges.shape == (0, 2)
        assert empty.edges.dtype == np.int32
    # wrong shapes, indices outside [0, len(vertices)), at any width, and non-integers
    bad = ([(0, 1, 1)], [0, 1], np.zeros((2, 3)), [(-1, 0)], [(0, 2)], np.array([[0, 2**33]]), [(0, 2**40)],
           [(0, 2**70)], [(0.7, 1)], [(0, 1.9)], np.array([[0.0, 1.0]]))
    for edges in bad:
        with pytest.raises(ValueError):
            HasseSubgraph((Zero(), UnitDirectZero(1)), edges)
    # the graph keeps its own tuple of vertices, so its edges keep pointing at them
    verts = [Zero(), UnitDirectZero(1)]
    g = HasseSubgraph(verts, [(0, 1)])
    dot = to_dot(g)
    verts[1] = Hyperbolic(0.5)
    assert to_dot(g) == dot and '"zero" -> "udz(1)";' in dot
    verts.clear()
    assert g.vertices == (Zero(), UnitDirectZero(1)) and to_dot(g) == dot


def test_hasse_limits_checked_first(monkeypatch):
    def no_rows(verts, families, pos):
        raise AssertionError("rows computed before the size check")

    monkeypatch.setattr(closure, "_rows", no_rows)
    with pytest.raises(AssertionError):
        to_dot(hasse_subgraph([Zero()]))  # reading a graph computes its rows
    with pytest.raises(InvalidInput):
        hasse_subgraph([Zero()] * (10**4 + 1))
    with pytest.raises(DuplicateVertex):
        hasse_subgraph([Zero(), UnitPair(1, -1), UnitPair(-1, 1)])


def test_cone_distance_positive_on_refusal():
    # zero exactly where reachable grants: no arrow is granted outside the cone
    rng = SplitMix64(3)
    for verts in (ladder_set(rng) for _ in range(3)):
        udz = [v for v in verts if isinstance(v, UnitDirectZero)]
        pairs = [v for v in verts if isinstance(v, UnitPair)]
        for u in udz:
            for p in pairs:
                d = closure._cone_distance(u.lam, p.mu, p.nu)
                assert (d == 0.0) == reachable(u, p), (u, p, d)
                assert d >= 0.0


# --- every edge of the order, 10^-k and one ulp to either side -------------------


def near(z):
    """z, z turned by +-10^-k for k = 1..16, and z with one part moved one ulp."""
    out = [z] + [z * unit(s * 10.0**-k) for k in range(1, 17) for s in (1, -1)]
    for inf in (math.inf, -math.inf):
        out += [complex(math.nextafter(z.real, inf), z.imag), complex(z.real, math.nextafter(z.imag, inf))]
    return out


def edge_ladder(rng: SplitMix64):
    """(source, target) pairs on both sides of every edge the predicates decide."""
    m, n, t = (unit(2 * np.pi * rng.uniform()) for _ in range(3))
    n = m * unit(0.3 + 2.5 * rng.uniform())
    generic, equal, anti = UnitPair(m, n), UnitPair(m, m), UnitPair(m, -m)
    cases = []
    # udz -> pair: lam near a generator of a sector, of the ray, of the line;
    # the equal and antipodal targets with one generator moved off
    for target, rays in ((generic, (m, n)), (equal, (m,)), (anti, (m, -m))):
        cases += [(UnitDirectZero(z), target) for r in rays for z in near(r)]
    cases += [(UnitDirectZero(lam), UnitPair(m, nu)) for nu in near(m) + near(-m) for lam in (m, 1j * m, -m)]
    # udz -> delta: lam near the boundary +-tau of the half-plane
    cases += [(UnitDirectZero(z), DeltaTau(t)) for z in near(t) + near(-t)]
    # pair(l, -l) -> delta(+-l) and pair(l, l) -> delta(+-i l)
    cases += [(anti, DeltaTau(z)) for z in near(m) + near(-m)]
    cases += [(equal, DeltaTau(z)) for z in near(1j * m) + near(-1j * m)]
    return [(s, t) for s, t in cases if s != t]


def test_edge_ladders_reachable_xor_certificate():
    rng = SplitMix64(2026)
    for _ in range(4):
        cases = edge_ladder(rng)
        for s, t in cases:
            if reachable(s, t):
                with pytest.raises(ArrowExists):
                    no_arrow_certificate(s, t)
            else:
                assert no_arrow_certificate(s, t).margin > 0.0, (s, t)
            if isinstance(s, UnitDirectZero) and isinstance(t, UnitPair):
                assert (closure._cone_distance(s.lam, t.mu, t.nu) == 0.0) == reachable(s, t), (s, t)
        # the array relation and its reduction are those of n^2 reachable calls
        verts = list(dict.fromkeys(v for case in cases for v in case))
        n = len(verts)
        R = np.array([[i != j and reachable(verts[i], verts[j]) for j in range(n)] for i in range(n)])
        assert np.array_equal(relation(verts), R)
        implied = (R.astype(np.int64) @ R.astype(np.int64)) > 0
        assert edge_tuples(hasse_subgraph(verts)) == tuple(zip(*np.nonzero(R & ~implied)))


def test_edge_ladders_decide_without_slack():
    # a rung 10^-k off an edge, k <= 15, lies on the side double precision
    # resolves for it: no slack grants an arrow from outside
    rng = SplitMix64(2027)
    for _ in range(4):
        m, t = (unit(2 * np.pi * rng.uniform()) for _ in range(2))
        n = m * unit(0.3 + 2.5 * rng.uniform())  # counter-clockwise of m
        generic, equal, anti = UnitPair(m, n), UnitPair(m, m), UnitPair(m, -m)
        for z in (m, n):
            assert reachable(UnitDirectZero(z), generic)
        assert reachable(UnitDirectZero(m), equal)
        assert reachable(UnitDirectZero(m), anti) and reachable(UnitDirectZero(-m), anti)
        assert reachable(UnitDirectZero(t), DeltaTau(t)) and reachable(UnitDirectZero(-t), DeltaTau(t))
        assert reachable(anti, DeltaTau(m)) and reachable(anti, DeltaTau(-m))
        for k in range(1, 16):
            for s in (1, -1):
                turn = unit(s * 10.0**-k)
                assert reachable(UnitDirectZero(m * turn), generic) == (s > 0), (k, s)
                assert reachable(UnitDirectZero(n * turn), generic) == (s < 0), (k, s)
                assert not reachable(UnitDirectZero(m * turn), equal)
                assert not reachable(UnitDirectZero(m * turn), anti)
                assert not reachable(UnitDirectZero(-m * turn), anti)
                assert reachable(UnitDirectZero(t * turn), DeltaTau(t)) == (s > 0), (k, s)
                assert reachable(UnitDirectZero(-t * turn), DeltaTau(t)) == (s < 0), (k, s)
                assert not reachable(anti, DeltaTau(m * turn))
                assert not reachable(anti, DeltaTau(-m * turn))
