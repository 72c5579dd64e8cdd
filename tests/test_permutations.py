"""Distance relabelings: formulas, cycle notation, group structure."""

import numpy as np
import pytest

import oracles
from mhg_twist import (
    DimensionMismatchError,
    InvalidDiameterError,
    InvalidInputError,
    NotAUnitError,
    OutOfAlphabetError,
    Twist,
    compose,
    identity,
    mu,
    parse_cycles,
    rho,
    rho_inverse,
    tau,
)


@pytest.mark.parametrize("delta", range(3, 13))
def test_rho_matches_oracle(delta):
    assert rho(delta).images == oracles.rho_images(delta)


@pytest.mark.parametrize("delta", range(3, 13))
def test_rho_inverse_matches_oracle(delta):
    assert rho_inverse(delta).images == oracles.rho_inverse_images(delta)


@pytest.mark.parametrize("delta", range(3, 13))
@pytest.mark.parametrize("eps", [0, 1])
def test_tau_matches_oracle(delta, eps):
    assert tau(delta, eps).images == oracles.tau_images(delta, eps)


# cycle forms pinned by hand evaluation of the formulas
CYCLE_FORMS = {
    3: ("(1 2 3)", "(1 3 2)", "(1 2)", "(1 3)"),
    4: ("(1 2 4)", "(1 4 2)", "(1 3)", "(1 4)"),
    5: ("(1 2 4 3 5)", "(1 5 3 4 2)", "(1 4)", "(1 5)"),
    6: ("(1 2 4 5 3 6)", "(1 6 3 5 4 2)", "(1 5)", "(1 6)(3 4)"),
    7: ("(1 2 4 7)(3 6)", "(1 7 4 2)(3 6)", "(1 6)(3 4)", "(1 7)(3 5)"),
    8: ("(1 2 4 8)(3 6 5 7)", "(1 8 4 2)(3 7 5 6)", "(1 7)(3 5)", "(1 8)(3 6)"),
}


@pytest.mark.parametrize("delta", sorted(CYCLE_FORMS))
def test_cycle_forms(delta):
    want_rho, want_rho_inv, want_tau0, want_tau1 = CYCLE_FORMS[delta]
    assert rho(delta).cycles() == want_rho
    assert rho_inverse(delta).cycles() == want_rho_inv
    assert tau(delta, 0).cycles() == want_tau0
    assert tau(delta, 1).cycles() == want_tau1


def test_identity_cycles_and_flag():
    e = identity(5)
    assert e.cycles() == "()"
    assert e.is_identity()
    assert not rho(5).is_identity()


@pytest.mark.parametrize("delta", range(3, 13))
def test_rho_composes_to_identity(delta):
    assert compose(rho(delta), rho_inverse(delta)).is_identity()
    assert compose(rho_inverse(delta), rho(delta)).is_identity()
    assert rho(delta).inverse() == rho_inverse(delta)


@pytest.mark.parametrize("delta", range(3, 13))
@pytest.mark.parametrize("eps", [0, 1])
def test_tau_is_an_involution(delta, eps):
    t = tau(delta, eps)
    assert compose(t, t).is_identity()
    assert t.inverse() == t


@pytest.mark.parametrize("delta", sorted(CYCLE_FORMS))
def test_cycles_roundtrip(delta):
    for t in (rho(delta), rho_inverse(delta), tau(delta, 0), tau(delta, 1)):
        assert parse_cycles(t.cycles(), delta) == t


def test_parse_cycles_whitespace_and_commas():
    assert parse_cycles("(1 2 3)", 3) == parse_cycles("(1,2,3)", 3)
    assert parse_cycles("  (1 3) ", 3) == tau(3, 1)
    assert parse_cycles("()", 4) == identity(4)


def test_parse_cycles_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        parse_cycles("(1 2", 3)
    with pytest.raises(InvalidInputError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(OutOfAlphabetError):
        parse_cycles("(1 4)", 3)


def test_mu_frozen_values():
    assert mu(7, 2).cycles() == "(1 2 3)"
    assert mu(7, 3).cycles() == "(1 3 2)"
    assert mu(5, 2).cycles() == "(1 2)"
    assert mu(6, 5).is_identity()
    assert mu(7, 2).inverse() == mu(7, 4)


@pytest.mark.parametrize("n", range(5, 26))
def test_mu_matches_oracle(n):
    for k in oracles.units(n):
        assert mu(n, k).images == oracles.mu_images(n, k)


@pytest.mark.parametrize("n", range(5, 26))
def test_mu_pairing(n):
    # k and n-k induce the same relabeling of cycle distances
    for k in oracles.units(n):
        assert mu(n, k) == mu(n, n - k)


def test_mu_rejects_non_units():
    with pytest.raises(NotAUnitError):
        mu(6, 2)
    with pytest.raises(NotAUnitError):
        mu(12, 9)


def test_small_deltas_rejected():
    with pytest.raises(InvalidDiameterError):
        rho(0)
    with pytest.raises(InvalidDiameterError):
        tau(-1, 0)


@pytest.mark.parametrize("bad", [True, False, None, "3", 3.0], ids=repr)
def test_constructors_refuse_a_delta_that_is_no_integer(bad):
    # identity(True) used to be the twist of delta 1
    with pytest.raises(InvalidDiameterError):
        identity(bad)
    with pytest.raises(InvalidDiameterError):
        rho(bad)


def test_twist_validates_images():
    with pytest.raises(InvalidInputError):
        Twist((1, 1, 3))
    with pytest.raises(InvalidInputError):
        Twist((0, 1, 2))
    with pytest.raises(InvalidDiameterError):
        Twist(())


@pytest.mark.parametrize("images", [[1.9, 2], [2.0, 1], [True, 2], [2, False], ["2", "1"], 12])
def test_twist_refuses_images_that_are_not_integers(images):
    # int() used to turn 1.9 into 1 and True into 1
    with pytest.raises(InvalidInputError):
        Twist(images)


@pytest.mark.parametrize("text", [
    '{"delta": 2, "images": [2.7, 1]}',
    '{"delta": 2, "images": [true, 2]}',
    '{"delta": 2.0, "images": [2, 1]}',
    '{"delta": true, "images": [1]}',
])
def test_twist_json_refuses_values_that_are_not_integers(text):
    with pytest.raises(InvalidInputError):
        Twist.from_json(text)


def test_twist_takes_numpy_integers():
    t = Twist(np.array([2, 1, 3]))
    assert t == Twist((2, 1, 3))
    assert all(type(x) is int for x in t.images)


def test_twist_apply_and_triple():
    t = rho(3)
    assert [t.apply(i) for i in (1, 2, 3)] == [2, 3, 1]
    assert t.apply_to_triple((1, 2, 3)) == (1, 2, 3)
    assert t.apply_to_triple((1, 1, 2)) == (2, 2, 3)
    with pytest.raises(OutOfAlphabetError):
        t.apply(4)


def test_twist_json_roundtrip():
    t = rho(6)
    assert Twist.from_json(t.to_json()) == t


def test_compose_rejects_mismatched_alphabets():
    with pytest.raises(DimensionMismatchError):
        compose(rho(3), rho(4))
