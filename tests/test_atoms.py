import pytest

from cranbounds import atoms


def test_mi_canonical_sorts_within_sides():
    a = atoms.mi_atom(["U1", "U0"], ["Y1"])
    assert a.name == "I(U0,U1;Y1)"


def test_mi_canonical_orders_sides():
    assert atoms.mi_atom(["Y1"], ["U0"]).name == atoms.mi_atom(["U0"], ["Y1"]).name


def test_conditional_mi_name():
    a = atoms.mi_atom(["U2"], ["Y1"], ["U1", "U0"])
    assert a.name == "I(U2;Y1|U0,U1)"


def test_gamma_name_sorted():
    assert atoms.gamma_atom(["V0", "U0", "U1"]).name == "Gamma(U0,U1,V0)"


@pytest.mark.parametrize("name", [
    "I(U0;Y1)", "I(U0,U1;Y1|V0)", "Gamma(U0,V0)", "H(X1)", "C12",
])
def test_parse_roundtrip(name):
    assert atoms.parse_atom(name).name == name


def test_parse_constant():
    spec = atoms.parse_atom("C21")
    assert spec.kind == atoms.CONST and spec.const_name == "C21"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        atoms.parse_atom("I(U0)")
    with pytest.raises(ValueError):
        atoms.parse_atom("not an atom")


def test_disjointness_enforced():
    with pytest.raises(ValueError):
        atoms.mi_atom(["U0"], ["U0", "Y1"])
