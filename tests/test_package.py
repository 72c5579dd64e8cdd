"""The package's export list."""

import types

import mhg_twist


def test_all_is_sorted_unique_and_resolves():
    names = mhg_twist.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(mhg_twist, name) is not None, name


def test_all_is_every_public_name_but_the_modules():
    public = {
        name
        for name, value in vars(mhg_twist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(mhg_twist.__all__) == public
