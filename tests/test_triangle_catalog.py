"""Triangle sets: enumeration, membership, images, metric and geodesic scans."""

import copy
import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from mhg_twist import (
    DimensionMismatchError,
    InvalidInputError,
    OutOfAlphabetError,
    TriangleSet,
    Twist,
    all_triples,
    contains_geodesics,
    fiber_distances,
    gamma_diameter,
    identity,
    image_set,
    is_metric,
    rho,
    rho_inverse,
    tau,
)
from mhg_twist import triangle_catalog
from mhg_twist.triangle_catalog import (
    RANK_CACHE_BYTES,
    _tables,
    grade_image,
    rank_permutation,
)


@pytest.mark.parametrize("delta", range(1, 13))
def test_all_triples_matches_oracle(delta):
    assert list(all_triples(delta)) == oracles.all_triples(delta)


def test_all_triples_count_is_binomial():
    # multisets of size 3 from delta symbols
    for delta in range(1, 13):
        n = delta * (delta + 1) * (delta + 2) // 6
        assert len(all_triples(delta)) == n


def test_from_triples_dedups_and_requires_sorted():
    ts = TriangleSet.from_triples(3, [(1, 2, 3), (1, 2, 3), (1, 1, 1)])
    assert ts.members() == [(1, 1, 1), (1, 2, 3)]
    assert (1, 2, 3) in ts
    assert (1, 1, 2) not in ts
    # the catalog works in sorted triples only, no silent normalization
    with pytest.raises(InvalidInputError):
        TriangleSet.from_triples(3, [(3, 2, 1)])
    with pytest.raises(InvalidInputError):
        (3, 2, 1) in ts


def test_from_triples_rejects_out_of_range():
    with pytest.raises(OutOfAlphabetError):
        TriangleSet.from_triples(3, [(1, 2, 4)])
    with pytest.raises(OutOfAlphabetError):
        TriangleSet.from_triples(3, [(0, 1, 1)])


def test_bool_array_roundtrip():
    full = TriangleSet.from_triples(4, all_triples(4))
    again = TriangleSet.from_bool_array(4, full.to_bool_array())
    assert again.members() == full.members()


def test_flags_are_read_only_and_owned():
    flags = [True] * len(all_triples(3))
    ts = TriangleSet.from_bool_array(3, flags)
    flags[0] = False  # the caller's list is not the set's storage
    assert len(ts) == len(all_triples(3))
    with pytest.raises(ValueError):
        ts.to_bool_array()[0] = False
    with pytest.raises(DimensionMismatchError):
        TriangleSet.from_bool_array(3, flags[1:])


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_set_copies_and_pickles(clone):
    ts = TriangleSet.from_triples(5, [(1, 2, 3), (2, 2, 4), (5, 5, 5)])
    c = clone(ts)
    assert c == ts and hash(c) == hash(ts)
    assert c.members() == ts.members()
    with pytest.raises(AttributeError):
        c.delta = 4
    with pytest.raises(ValueError):
        c.to_bool_array()[0] = True


def test_json_roundtrip():
    ts = TriangleSet.from_triples(5, [(1, 2, 3), (5, 5, 5)])
    assert TriangleSet.from_json(ts.to_json()).members() == ts.members()


@pytest.mark.parametrize("delta", range(3, 9))
def test_image_set_matches_oracle(delta):
    subset = [t for t in all_triples(delta) if sum(t) % 3 != 1]
    ts = TriangleSet.from_triples(delta, subset)
    for twist in (rho(delta), rho_inverse(delta), tau(delta, 0), tau(delta, 1)):
        got = set(image_set(ts, twist).members())
        assert got == oracles.image(subset, twist.images)


@pytest.mark.parametrize("delta", range(3, 9))
def test_image_membership_goes_through_the_inverse(delta):
    # x lies in the image set exactly when its preimage was a member
    subset = [t for t in all_triples(delta) if min(t) == 1]
    ts = TriangleSet.from_triples(delta, subset)
    twist = rho(delta)
    img = image_set(ts, twist)
    inv = twist.inverse()
    for x in all_triples(delta):
        assert (x in img) == (inv.apply_to_triple(x) in ts)


@pytest.mark.parametrize("delta", [1, 2, 3, 7, 12])
def test_rank_table_holds_every_order(delta):
    rank3d = _tables(delta).rank3d
    for r, t in enumerate(all_triples(delta)):
        assert {int(rank3d[p]) for p in itertools.permutations(t)} == {r}
    # entries with a 0 are no triple at all
    assert (rank3d[0] == -1).all() and (rank3d[:, 0] == -1).all() and (rank3d[:, :, 0] == -1).all()


@pytest.mark.parametrize("seed", range(6))
def test_rank_permutation_matches_the_sorted_lookup(seed):
    rng = random.Random(seed)
    for _ in range(20):
        delta = rng.randint(3, 25)
        images = list(range(1, delta + 1))
        rng.shuffle(images)
        rank = {t: r for r, t in enumerate(all_triples(delta))}
        want = [rank[tuple(sorted(images[x - 1] for x in t))] for t in all_triples(delta)]
        assert rank_permutation(Twist(tuple(images))).tolist() == want


def test_image_under_identity_is_identity():
    ts = TriangleSet.from_triples(6, [(1, 2, 3), (4, 5, 6)])
    assert image_set(ts, identity(6)).members() == ts.members()


def test_image_set_delta_mismatch():
    ts = TriangleSet.from_triples(3, [(1, 2, 3)])
    with pytest.raises(DimensionMismatchError):
        image_set(ts, rho(4))


def test_is_metric_flags_the_bad_triple():
    good = TriangleSet.from_triples(3, [(1, 1, 2), (2, 2, 3)])
    assert is_metric(good) == (True, None)
    bad = TriangleSet.from_triples(4, [(1, 1, 2), (1, 1, 4)])
    flag, witness = is_metric(bad)
    assert not flag
    assert witness == (1, 1, 4)
    assert not oracles.is_metric_triple(witness)


@pytest.mark.parametrize("delta", range(2, 9))
def test_is_metric_matches_oracle_on_slices(delta):
    for keep in range(3):
        subset = [t for t in all_triples(delta) if sum(t) % 3 == keep]
        if not subset:
            continue
        ts = TriangleSet.from_triples(delta, subset)
        assert is_metric(ts)[0] == all(oracles.is_metric_triple(t) for t in subset)


def test_contains_geodesics_reports_first_gap():
    delta = 5
    full = [(1, k, k + 1) for k in range(1, delta)]
    ts = TriangleSet.from_triples(delta, full)
    assert contains_geodesics(ts) == (True, None)
    holed = TriangleSet.from_triples(delta, [t for t in full if t != (1, 3, 4)])
    assert contains_geodesics(holed) == (False, 3)
    assert not oracles.has_all_geodesics(holed.members(), delta)


@pytest.mark.parametrize("delta", range(3, 9))
def test_gamma_diameter_matches_oracle(delta):
    subset = [t for t in all_triples(delta) if sum(t) <= 2 * delta + 1]
    ts = TriangleSet.from_triples(delta, subset)
    for i in range(1, delta + 1):
        assert gamma_diameter(ts, i) == oracles.gamma_diameter(subset, i)


def test_fiber_distances_lists_the_ks():
    ts = TriangleSet.from_triples(4, [(1, 2, 2), (2, 2, 3), (1, 2, 3)])
    assert fiber_distances(ts, 2) == [1, 3]
    assert fiber_distances(ts, 1) == []
    assert gamma_diameter(ts, 2) == 3
    assert gamma_diameter(ts, 1) == 0


@pytest.mark.parametrize("seed", range(8))
def test_scans_match_plain_loops_on_random_sets(seed):
    rng = random.Random(seed)
    delta = rng.randint(1, 12)
    subset = [t for t in all_triples(delta) if rng.random() < 0.3]
    ts = TriangleSet.from_triples(delta, subset)
    members = ts.members()
    assert members == sorted(subset)  # rank order is lexicographic order
    assert all(type(x) is int for t in members for x in t)
    for i in range(1, delta + 1):
        want = [k for k in range(1, delta + 1) if tuple(sorted((i, i, k))) in subset]
        got = fiber_distances(ts, i)
        assert got == want
        assert all(type(k) is int for k in got)
        assert gamma_diameter(ts, i) == oracles.gamma_diameter(subset, i)


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 8])
def test_grade_image_of_a_matrix_is_its_rows_graded_one_by_one(delta):
    rng = random.Random(delta)
    triples = all_triples(delta)
    sets = [[t for t in triples if rng.random() < share] for share in (0, 0.3, 0.8, 1)]
    matrix = np.stack([TriangleSet.from_triples(delta, s).to_bool_array() for s in sets])
    for images in list(itertools.permutations(range(1, delta + 1)))[:24]:
        twist = Twist(images)
        image, bad, missing = grade_image(matrix, twist)
        for row, subset in enumerate(sets):
            one = grade_image(matrix[row], twist)
            assert type(one[1]) is int and type(one[2]) is int
            assert (one[0].tolist(), one[1], one[2]) == (
                image[row].tolist(), bad[row], missing[row]
            )
            img = oracles.image(subset, images)
            assert set(TriangleSet.from_bool_array(delta, one[0]).members()) == img
            nonmetric = [t for t in img if not oracles.is_metric_triple(t)]
            assert one[1] == (triples.index(min(nonmetric)) if nonmetric else -1)
            gaps = [k for k in range(1, delta) if (1, k, k + 1) not in img]
            assert one[2] == (gaps[0] if gaps else 0)


def test_fiber_scans_validate_the_letter():
    ts = TriangleSet.from_triples(4, [(1, 2, 2)])
    for bad in (0, 5):
        with pytest.raises(OutOfAlphabetError):
            fiber_distances(ts, bad)
        with pytest.raises(OutOfAlphabetError):
            gamma_diameter(ts, bad)
    with pytest.raises(InvalidInputError):
        fiber_distances(ts, 2.0)


def test_rank_tables_stay_within_their_byte_budget():
    # a delta = 40 table is 46 KB: kept by count, 1,000 one-off twists
    # would hold 46 MB; the oldest go once RANK_CACHE_BYTES is reached
    rng = random.Random(40)
    first = rank_permutation(rho(40)).tolist()
    tracemalloc.start()
    try:
        for _ in range(1000):
            images = list(range(1, 41))
            rng.shuffle(images)
            rank_permutation(Twist(images))
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = triangle_catalog._rank_tables
    assert kept.nbytes == sum(t.nbytes for t in kept.values()) <= RANK_CACHE_BYTES
    assert grown < RANK_CACHE_BYTES + (1 << 20)
    # an evicted table is built again, the same
    assert rank_permutation(rho(40)).tolist() == first


@pytest.mark.parametrize("bad", ["a", None, True, False, 2.0], ids=repr)
def test_fiber_scans_refuse_a_letter_that_is_no_integer(bad):
    # a bool is no letter: True used to index as a mask
    ts = TriangleSet.from_triples(4, [(1, 2, 2)])
    with pytest.raises(InvalidInputError):
        fiber_distances(ts, bad)
    with pytest.raises(InvalidInputError):
        gamma_diameter(ts, bad)


@pytest.mark.parametrize("bad", [True, False, None, "3", 3.0], ids=repr)
def test_catalog_refuses_a_delta_that_is_no_integer(bad):
    # all_triples(True) used to be the one triple (1, 1, 1)
    with pytest.raises(InvalidInputError):
        all_triples(bad)
    with pytest.raises(InvalidInputError):
        TriangleSet.from_triples(bad, [])
