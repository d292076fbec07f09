import chemodde


def test_all_names_exist_and_are_sorted():
    assert [name for name in chemodde.__all__ if not hasattr(chemodde, name)] == []
    assert chemodde.__all__ == sorted(set(chemodde.__all__))
