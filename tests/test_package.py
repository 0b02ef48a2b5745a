import packedwords
from packedwords import algebra, coalgebra, enumeration, primitives, words


def test_exports_are_the_modules_exports():
    modules = (words, algebra, coalgebra, enumeration, primitives)
    assert set(packedwords.__all__) == {name for m in modules for name in m.__all__}
    assert len(packedwords.__all__) == len(set(packedwords.__all__))
    for m in modules:
        for name in m.__all__:
            assert getattr(packedwords, name) is getattr(m, name), name
