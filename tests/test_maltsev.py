import pytest

import clonekit.maltsev
from clonekit import (
    CloneGenSet,
    OperationTable,
    Outcome,
    RelStructure,
    boolean_order,
    day_structure,
    find_coloring,
    find_hagemann_mitschke,
    free_structure,
    is_congruence_modular,
    is_n_permutable_somewhere,
    verify_hm_chain,
)
from clonekit.freestruct import CrossCheckError
from clonekit.maltsev import HMChain, hagemann_mitschke_system

from conftest import MIN2, MINORITY


def test_day_structure_relations_are_equivalences():
    d = day_structure()
    blocks = {"alpha": [{0, 1}, {2, 3}], "beta": [{0, 2}, {1, 3}],
              "gamma": [{0, 1}, {2}, {3}]}
    for name, parts in blocks.items():
        want = {(x, y) for blk in parts for x in blk for y in blk}
        assert set(d.relations[name]) == want
        # reflexive, symmetric, transitive
        rel = set(d.relations[name])
        assert all((x, x) in rel for x in range(4))
        assert all((y, x) in rel for x, y in rel)
        assert all((x, z) in rel for x, y in rel for y2, z in rel if y == y2)


def test_minority_maltsev_chain():
    res = find_hagemann_mitschke(CloneGenSet.of(2, [MINORITY]), 2)
    assert res.found
    assert res.chain.ops == (MINORITY,)
    assert verify_hm_chain(res.chain)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_clone_has_no_chains(proj_clone, n):
    assert find_hagemann_mitschke(proj_clone, n).outcome is Outcome.REFUTED


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lattice_clone_has_no_chains(lattice_clone, n):
    assert find_hagemann_mitschke(lattice_clone, n).outcome is Outcome.REFUTED


def test_chain_search_through_structure_polymorphisms(rxor_struct):
    res = find_hagemann_mitschke(rxor_struct, 2)
    assert res.found
    assert res.chain.ops == (MINORITY,)


def test_chain_validation():
    with pytest.raises(ValueError):
        HMChain(2, ())
    with pytest.raises(ValueError):
        HMChain(2, (MIN2,))
    # projections satisfy neither boundary identity
    from clonekit import projection
    assert not verify_hm_chain(HMChain(2, (projection(2, 3, 1),)))


def test_chain_over_mixed_domains_is_rejected():
    # over {0,1} the minority and the third projection on {0,1,2} chain
    # (p1(x,y,y) = x, p1(x,x,y) = y = p2(x,y,y), p2(x,x,y) = y), but they
    # are not operations on one domain
    from clonekit import projection
    assert verify_hm_chain(HMChain(3, (MINORITY, projection(2, 3, 3))))
    assert not verify_hm_chain(HMChain(3, (MINORITY, projection(3, 3, 3))))


def test_hm_system_shape():
    sys3 = hagemann_mitschke_system(3)
    assert dict(sys3.symbols) == {"p1": 3, "p2": 3}
    assert len(sys3.equations) == 3


def test_n_permutability_fixture_suite(minority_clone, proj_clone, lattice_clone):
    res = is_n_permutable_somewhere(minority_clone)
    assert res.holds is True
    assert res.chain is not None and res.chain.n == 2

    res = is_n_permutable_somewhere(proj_clone)
    assert res.holds is False
    assert res.coloring.found

    res = is_n_permutable_somewhere(lattice_clone)
    assert res.holds is False
    assert res.coloring.found


def test_modularity_fixture_suite(minority_clone, proj_clone, lattice_clone):
    assert is_congruence_modular(minority_clone).holds is True
    res = is_congruence_modular(proj_clone)
    assert res.holds is False
    assert res.coloring.found
    res = is_congruence_modular(lattice_clone)
    assert res.holds is True
    assert len(res.free.carrier) == 166
    assert [len(res.free.lifted[n]) for n in ("alpha", "beta", "gamma")] == [7010, 7010, 3226]


def test_affine_clone_on_three_elements_is_modular():
    # x - y + z mod 3 is a Maltsev operation
    affine = OperationTable(3, 3, tuple((x - y + z) % 3 for x in range(3)
                                        for y in range(3) for z in range(3)))
    res = is_congruence_modular(CloneGenSet.of(3, [affine]))
    assert res.holds is True
    assert len(res.free.carrier) == 27
    assert [len(res.free.lifted[n]) for n in ("alpha", "beta", "gamma")] == [243, 243, 81]


def test_chain_implies_n_permutable(minority_clone, proj_clone, lattice_clone):
    for gen in (minority_clone, proj_clone, lattice_clone):
        for n in (2, 3, 4):
            if find_hagemann_mitschke(gen, n).found:
                assert is_n_permutable_somewhere(gen).holds is True


def test_maltsev_chain_implies_modular(minority_clone):
    # corpus-level consistency: a chain at n=2 forces modularity
    res = is_n_permutable_somewhere(minority_clone)
    if res.chain is not None and res.chain.n == 2:
        assert is_congruence_modular(minority_clone).holds is True


def _permute_structure(b: RelStructure, perm) -> RelStructure:
    rels = {name: [tuple(perm[v] for v in t) for t in b.relations[name]]
            for name, _ in b.signature.rel_names}
    return RelStructure.make(b.size, rels,
                             arities=dict(b.signature.rel_names))


@pytest.mark.parametrize("perm", [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
def test_strong_coloring_stable_under_relabeling(minority_clone, proj_clone, perm):
    base = day_structure()
    relabeled = _permute_structure(base, perm)
    for gen in (minority_clone, proj_clone):
        a = find_coloring(free_structure(gen, base), strong=True).outcome
        b = find_coloring(free_structure(gen, relabeled), strong=True).outcome
        assert a == b


def test_strong_coloring_stable_under_relabeling_lattice(lattice_clone):
    # one permutation for the expensive clone
    base = day_structure()
    relabeled = _permute_structure(base, (1, 0, 3, 2))
    a = find_coloring(free_structure(lattice_clone, base), strong=True).outcome
    b = find_coloring(free_structure(lattice_clone, relabeled), strong=True).outcome
    assert a == b


def test_boolean_order_fixture():
    b = boolean_order()
    assert b.relations["le"] == ((0, 0), (0, 1), (1, 1))


def test_failed_chain_check_raises_cross_check_error(monkeypatch):
    monkeypatch.setattr(clonekit.maltsev, "verify_hm_chain", lambda chain: False)
    with pytest.raises(CrossCheckError):
        find_hagemann_mitschke(CloneGenSet.of(2, [MINORITY]), 2)
