import pytest

from clonekit import (
    CapacityError,
    ParseError,
    RelStructure,
    Signature,
    TupleCoding,
    parse_structure,
    power_structure,
    serialize_structure,
)
from clonekit.structures import StructureError, structure_from_dict, structure_to_dict

from conftest import hepp_A


def test_tuple_coding_roundtrip():
    for base, length in [(2, 3), (3, 2), (4, 3), (5, 1), (2, 0)]:
        coding = TupleCoding(base, length)
        for code in range(coding.count):
            assert coding.encode(coding.decode(code)) == code
    # lexicographic: first coordinate most significant
    c = TupleCoding(3, 2)
    assert c.encode((0, 0)) == 0
    assert c.encode((0, 1)) == 1
    assert c.encode((1, 0)) == 3
    assert c.decode(5) == (1, 2)


def test_tuple_coding_errors():
    c = TupleCoding(2, 2)
    with pytest.raises(ValueError):
        c.encode((0, 2))
    with pytest.raises(ValueError):
        c.encode((0,))
    with pytest.raises(ValueError):
        c.decode(4)


def test_signature_validation():
    with pytest.raises(Exception):
        Signature.of([("r", 2), ("r", 3)])
    with pytest.raises(Exception):
        Signature.of([("r", 0)])


def test_structure_validation():
    with pytest.raises(Exception):
        RelStructure.make(2, {"r": [(0, 2)]})  # element out of range
    with pytest.raises(Exception):
        RelStructure(2, Signature.of([("r", 2)]), {"r": [(0,)]})  # arity
    with pytest.raises(Exception):
        RelStructure(2, Signature.of([("r", 1)]), {"r": [(0,), (0,)]})  # dup


def test_structure_validation_messages():
    sig = Signature.of([("r", 2)])
    cases = [
        ([(0, 1), (1,)], "relation 'r': tuple (1,) has arity 1, expected 2"),
        ([(0, 1), (1, 2)], "relation 'r': element 2 out of range for size 2"),
        ([(0, -1)], "relation 'r': element -1 out of range for size 2"),
        # the first bad tuple decides, whichever check it fails
        ([(0, 3), (0, 1, 1)], "relation 'r': element 3 out of range for size 2"),
        ([(0, 1, 1), (0, 3)], "relation 'r': tuple (0, 1, 1) has arity 3, expected 2"),
    ]
    for tuples, message in cases:
        with pytest.raises(StructureError) as err:
            RelStructure(2, sig, {"r": tuples})
        assert str(err.value) == message


def test_two_element_order_parses():
    a = parse_structure('size 2; le/2 = {(0,0),(0,1),(1,1)};')
    assert a.size == 2
    assert len(a.relations["le"]) == 3


def test_json_and_compact_agree(le_plain):
    j = '{"size": 2, "relations": {"le/2": [[0,0],[0,1],[1,1]]}}'
    c = 'size 2; le/2 = {(0,0),(0,1),(1,1)};'
    assert parse_structure(j) == parse_structure(c) == le_plain


def test_serialize_parse_roundtrip(le_struct, path3, k3):
    for a in (le_struct, path3, k3, hepp_A()):
        assert parse_structure(serialize_structure(a)) == a
    # canonical text is a fixpoint
    text = serialize_structure(le_struct)
    assert serialize_structure(parse_structure(text)) == text


def test_unary_relations_accept_bare_elements():
    a = parse_structure('size 2; s/1 = {0, 1};')
    b = parse_structure('size 2; s/1 = {(0),(1)};')
    assert a == b


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as e:
        parse_structure('size 2; le/2 = {(0,0) (0,1)};')
    assert e.value.pos is not None
    with pytest.raises(ParseError):
        parse_structure('{"size": 2, "relations": {"le": [[0,0]]}}')  # no arity
    with pytest.raises(ParseError):
        parse_structure('{"size": 2, "relations"')


def test_out_of_range_element_rejected():
    with pytest.raises(Exception, match="out of range"):
        parse_structure('size 4; r/1 = {5};')


def test_duplicate_tuples_rejected():
    with pytest.raises(Exception, match="duplicate"):
        parse_structure('{"size": 2, "relations": {"r/1": [[0],[0]]}}')


def test_hepp_structure_shape():
    a = hepp_A()
    assert a.size == 4
    ternary = [n for n, k in a.signature.rel_names if k == 3]
    assert len(ternary) == 4
    for name in ternary:
        assert len(a.relations[name]) == 16
    singletons = [n for n, k in a.signature.rel_names if k == 1]
    assert len(singletons) == 4


def test_power_identity(le_struct):
    assert power_structure(le_struct, 1) == le_struct


def test_power_of_order_squared(le_plain):
    sq = power_structure(le_plain, 2)
    assert sq.size == 4
    assert len(sq.relations["le"]) == 9


def test_power_counts_are_multiplicative(le_struct, k3, path3):
    for a in (le_struct, k3, path3):
        for n in (1, 2, 3):
            p = power_structure(a, n)
            for name, _ in a.signature.rel_names:
                assert len(p.relations[name]) == len(a.relations[name]) ** n


def test_hepp_cube_counts():
    a = hepp_A()
    p = power_structure(a, 3)
    assert p.size == 64
    for name, k in a.signature.rel_names:
        if k == 3:
            assert len(p.relations[name]) == 16**3


def test_iterated_power_isomorphic_to_flat_power(le_plain, k2):
    # power(power(A, m), k) equals power(A, m*k) after recoding
    for a in (le_plain, k2):
        for m, k in [(2, 2), (2, 3), (3, 2)]:
            outer = power_structure(power_structure(a, m), k)
            flat = power_structure(a, m * k)
            inner = TupleCoding(a.size, m)
            outerc = TupleCoding(a.size**m, k)
            flatc = TupleCoding(a.size, m * k)

            def recode(code):
                vec = []
                for block in outerc.decode(code):
                    vec.extend(inner.decode(block))
                return flatc.encode(tuple(vec))

            assert outer.size == flat.size
            for name, _ in a.signature.rel_names:
                mapped = {tuple(recode(v) for v in t) for t in outer.relations[name]}
                assert mapped == set(flat.relations[name])


def test_power_capacity_guard(k3):
    with pytest.raises(CapacityError):
        power_structure(k3, 20)


def test_structure_dict_roundtrip(le_struct):
    assert structure_from_dict(structure_to_dict(le_struct)) == le_struct


def test_induced_substructure(path3):
    sub = path3.induced([0, 1])
    assert sub.size == 2
    assert sub.relations["edge"] == ((0, 1), (1, 0))
