import itertools

import pytest

import clonekit
import clonekit.homs
from clonekit import (
    HomMap,
    Outcome,
    RelStructure,
    SearchBudget,
    add_singletons,
    all_homomorphisms,
    core_of,
    find_homomorphism,
    find_isomorphism,
    hom_equivalent,
    is_hom,
)
from clonekit.freestruct import CrossCheckError
from clonekit.homs import SignatureMismatchError
from clonekit.search import Csp




def brute_homomorphisms(c, a):
    out = []
    for m in itertools.product(range(a.size), repeat=c.size):
        f = HomMap(c.size, a.size, m)
        if is_hom(f, c, a):
            out.append(m)
    return out


def test_identity_is_hom(le_struct, k3):
    for a in (le_struct, k3):
        ident = HomMap(a.size, a.size, tuple(range(a.size)))
        assert is_hom(ident, a, a)


def test_hepp_paper_maps(hepp_ap, hepp_b):
    # (x1, x2) -> x1 is code >> 1; x -> (x, 0) is 2x
    fwd = HomMap(4, 2, (0, 0, 1, 1))
    bwd = HomMap(2, 4, (0, 2))
    assert is_hom(fwd, hepp_ap, hepp_b)
    assert is_hom(bwd, hepp_b, hepp_ap)


def test_constant_map_on_triangle_is_not_hom(k3):
    assert not is_hom(HomMap(3, 3, (0, 0, 0)), k3, k3)


def test_signature_mismatch_raises(le_struct, k3):
    with pytest.raises(SignatureMismatchError):
        is_hom(HomMap(2, 3, (0, 0)), le_struct, k3)
    with pytest.raises(SignatureMismatchError):
        find_homomorphism(le_struct, k3)


def test_single_element_source_maps_anywhere(k3):
    c = RelStructure.make(1, {"edge": []}, arities={"edge": 2})
    res = find_homomorphism(c, k3)
    assert res.found


def test_no_two_coloring_of_triangle(k3, k2):
    res = find_homomorphism(k3, k2)
    assert res.outcome is Outcome.REFUTED


def test_hepp_b_maps_into_reduct(hepp_ap, hepp_b):
    res = find_homomorphism(hepp_b, hepp_ap)
    assert res.found
    assert is_hom(res.witness, hepp_b, hepp_ap)


def test_budget_exhaustion_is_not_refutation(k3, k2):
    res = find_homomorphism(k3, k2, SearchBudget(node_limit=1))
    assert res.outcome is Outcome.BUDGET
    assert res.witness is None


def test_search_matches_brute_force_on_small_corpus(le_struct, k2, k3, path3):
    pool = [k2, k3, path3]
    checked = 0
    for c, a in itertools.product(pool, repeat=2):
        if a.size**c.size > 10**5:
            continue
        got = [h.map for h in all_homomorphisms(c, a)]
        assert got == brute_homomorphisms(c, a)
        checked += 1
    assert checked >= 9


def test_hom_equivalent_isomorphic_copies(path3):
    other = RelStructure.make(3, {"edge": [(1, 0), (0, 1), (0, 2), (2, 0)]})
    res = hom_equivalent(path3, other)
    assert res.found
    assert is_hom(res.forward, path3, other)
    assert is_hom(res.backward, other, path3)


def test_hepp_reduct_equivalent_to_quotient(hepp_ap, hepp_b):
    res = hom_equivalent(hepp_ap, hepp_b)
    assert res.found


def test_k3_not_equivalent_to_k2(k3, k2):
    assert hom_equivalent(k3, k2).outcome is Outcome.REFUTED


def test_core_of_triangle_is_itself(k3):
    res = core_of(k3)
    assert res.core == k3
    assert res.retraction.map == (0, 1, 2)


def test_core_of_path_is_an_edge(path3):
    res = core_of(path3)
    assert res.core.size == 2
    assert res.subset == (0, 1)
    assert res.retraction.map == (0, 1, 0)


def test_core_of_hepp_reduct_is_the_two_element_structure(hepp_ap, hepp_b):
    res = core_of(hepp_ap)
    assert res.core.size == 2
    assert find_isomorphism(res.core, hepp_b) is not None


def test_add_singletons_two_element(le_plain):
    a = add_singletons(le_plain)
    unary = {n for n, k in a.signature.rel_names if k == 1}
    assert len(unary) == 2
    assert a.tuple_set("sing0") == {(0,)}
    assert a.tuple_set("sing1") == {(1,)}


def test_add_singletons_idempotent(le_plain, k3):
    for a in (le_plain, k3):
        once = add_singletons(a)
        assert add_singletons(once) == once


def test_add_singletons_k3_rigid(k3s):
    # brute force over all 27 self-maps: only the identity survives
    endos = brute_homomorphisms(k3s, k3s)
    assert endos == [(0, 1, 2)]


def all_graphs(max_n=4):
    """Every labeled symmetric irreflexive graph with 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = []
            for idx, (i, j) in enumerate(pairs):
                if bits >> idx & 1:
                    edges += [(i, j), (j, i)]
            out.append(RelStructure.make(n, {"edge": edges},
                                         arities={"edge": 2}))
    return out


def test_core_idempotent_and_equivalent_on_graph_corpus():
    corpus = all_graphs(4)
    assert len(corpus) == 1 + 2 + 8 + 64
    for a in corpus:
        res = core_of(a)
        assert is_hom(res.retraction, a, res.core)
        again = core_of(res.core)
        assert find_isomorphism(again.core, res.core) is not None
        assert hom_equivalent(a, res.core).found


def test_hom_map_validation():
    with pytest.raises(ValueError):
        HomMap(2, 2, (0,))
    with pytest.raises(ValueError):
        HomMap(2, 2, (0, 5))


def test_failed_witness_check_raises_cross_check_error(monkeypatch, path3, k2):
    # the re-check is an explicit raise, so it also runs under python -O
    monkeypatch.setattr(clonekit.homs, "is_hom", lambda *args: False)
    with pytest.raises(CrossCheckError):
        find_homomorphism(path3, k2)
    assert clonekit.CrossCheckError is CrossCheckError


def test_target_relations_compile_once_per_pattern(monkeypatch, le_struct):
    # the compiled forms of a target's relations live on the target, so a
    # second search into it compiles nothing
    compiled = []
    compile_ = Csp._compile

    def counting(self, pattern, allowed):
        compiled.append((tuple(allowed), pattern))
        return compile_(self, pattern, allowed)

    monkeypatch.setattr(Csp, "_compile", counting)
    # le on a distinct pair and on a repeated variable: two patterns
    x = RelStructure.make(3, {"le": [(0, 0), (0, 1), (1, 2)],
                              "s0": [(0,)], "s1": [(2,)]})
    for _ in range(2):
        assert find_homomorphism(x, le_struct).found
    assert sorted(pattern for _, pattern in compiled) == [(0,), (0,), (0, 0), (0, 1)]
    assert len(set(compiled)) == len(compiled)


def test_pins_outside_either_domain_raise(k3):
    # the directed 3-cycle maps into K3; a pin outside the source's
    # elements or the target's values is an error, not a refutation, and
    # element -1 does not stand for element 2
    c3 = RelStructure.make(3, {"edge": [(0, 1), (1, 2), (2, 0)]})
    assert find_homomorphism(c3, k3, pins={0: 2, 2: 1}).found
    for pins in ({0: 7}, {-1: 0, 2: 1}, {-1: 0}, {3: 0}, {0: -1}):
        with pytest.raises(ValueError):
            find_homomorphism(c3, k3, pins=pins)
    with pytest.raises(ValueError):
        clonekit.homs.hom_csp(3, c3.relations, k3, {0: 3})
