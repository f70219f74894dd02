import pytest
from hypothesis import given, strategies as st

from treepack.graph import (
    build_graph,
    complete_graph,
    connected_components,
    crossing_edges,
    cycle_graph,
    edge_boundary,
    edge_boundary_size,
    make_partition,
    max_degree,
    min_degree,
    normalize_edge,
    path_graph,
    read_edge_list,
    singleton_partition,
    validate_partition,
    write_edge_list,
)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(0, 0)])


def test_build_rejects_duplicate_even_when_flipped():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(-1, 2)])


def test_build_sorts_and_normalizes():
    g = build_graph(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edge_list == ((0, 1), (0, 2), (1, 3))
    assert g.adjacency[1] == frozenset({0, 3})


def test_empty_graph():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0
    assert connected_components(g) == []


def test_degrees_on_k4():
    g = complete_graph(4)
    assert min_degree(g) == 3
    assert max_degree(g) == 3
    assert g.m == 6


def test_degree_undefined_on_empty():
    g = build_graph(0, [])
    with pytest.raises(ValueError):
        min_degree(g)
    with pytest.raises(ValueError):
        max_degree(g)


def test_components_of_disjoint_paths():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert comps == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5})]


def test_edge_boundary_c4():
    g = cycle_graph(4)
    assert edge_boundary(g, {0}) == frozenset({(0, 1), (0, 3)})
    assert edge_boundary(g, {0, 1}) == frozenset({(0, 3), (1, 2)})
    assert edge_boundary(g, {0, 1, 2, 3}) == frozenset()


def test_edge_boundary_rejects_bad_vertex():
    with pytest.raises(ValueError):
        edge_boundary(cycle_graph(4), {0, 9})


def test_crossing_edges_c4_opposite_pairs():
    g = cycle_graph(4)
    p = make_partition([{0, 2}, {1, 3}])
    assert crossing_edges(g, p) == 4


def test_crossing_edges_singletons_is_m():
    g = complete_graph(5)
    assert crossing_edges(g, singleton_partition(5)) == g.m


def test_validate_partition_rejects_overlap_and_gap():
    g = path_graph(3)
    with pytest.raises(ValueError, match="two blocks"):
        validate_partition(g, make_partition([{0, 1}, {1, 2}]))
    with pytest.raises(ValueError, match="misses"):
        validate_partition(g, make_partition([{0, 1}]))
    with pytest.raises(ValueError, match="outside"):
        validate_partition(g, make_partition([{0, 1, 2, 7}]))


def test_edge_list_roundtrip(tmp_path):
    g = build_graph(5, [(0, 4), (1, 2), (2, 3)])
    path = str(tmp_path / "g.txt")
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n and h.edge_list == g.edge_list


def test_read_edge_list_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="promises"):
        read_edge_list(str(path))


# Random small graphs for property tests: pick edges from the full pair set.
@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(len(a) for a in g.adjacency) == 2 * g.m


@given(small_graphs(), st.data())
def test_boundary_symmetry(g, data):
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    complement = set(range(g.n)) - subset
    assert edge_boundary(g, subset) == edge_boundary(g, complement)
    assert edge_boundary_size(g, subset) == len(edge_boundary(g, subset))


@given(small_graphs(), st.data())
def test_crossing_is_half_sum_of_block_boundaries(g, data):
    # Randomly assign vertices to up to 4 block labels, then normalize.
    labels = data.draw(
        st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)
    )
    groups: dict[int, set[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(v)
    p = make_partition(groups.values())
    total = sum(len(edge_boundary(g, b)) for b in p.blocks)
    assert total == 2 * crossing_edges(g, p)


@given(small_graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    union = set()
    for c in comps:
        assert not (union & c)
        union |= c
    assert union == set(range(g.n))
    for u, v in g.edge_list:
        assert any(u in c and v in c for c in comps)


def test_normalize_edge():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)
