"""Every name a ``braiddyn`` module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import braiddyn

# importlib, not attribute access: the package attribute braiddyn.classify
# is the function, and the module of the same name lives in sys.modules
MODULES = ["braiddyn"] + [
    f"braiddyn.{info.name}" for info in pkgutil.iter_modules(braiddyn.__path__)
]


def test_modules_are_found():
    assert {"braiddyn.fusion", "braiddyn.automaton", "braiddyn.braidword", "braiddyn.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", None)
    if public is None:
        return
    assert len(set(public)) == len(public), "duplicate names in __all__"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


def test_one_product_path():
    # 2x2 products run only through fusion.product_tree, entry products
    # only through its packed kernel; the left-to-right fold and the
    # term-by-term kernel live in the tests
    removed = {
        "braiddyn.fusion": (
            "mass_dot",
            "_laurent_dot",
            "_rows",
            "_fuse_into",
            "_nonzero",
            "_sparse_dot",
            "_sparse_matrix_mul",
            "_dense_rows",
            "SparseMatrix",
            "sparse_entry",
            "terms_at_0",
        ),
        "braiddyn.automaton": ("mat_mul", "mass_dot", "_bool_mul"),
        "braiddyn.braidword": ("_mat_mul", "_svec_add", "_laurent_dot", "_sparse_generators"),
    }
    for name, attrs in removed.items():
        module = importlib.import_module(name)
        assert [a for a in attrs if hasattr(module, a)] == [], name
    from braiddyn.automaton import Arrow
    from braiddyn.braidword import QLaurent
    from braiddyn.classify import ClassificationResult, LogPFGrowth
    from braiddyn.fusion import LaurentTerms, MassPoly

    assert "__mul__" not in vars(QLaurent) and "__add__" not in vars(QLaurent)
    assert "sparse" not in vars(Arrow)
    # one exact term type: both kinds of Laurent polynomial check, build and
    # write their terms through LaurentTerms, and M(p) is read only as res.matrix
    assert not hasattr(MassPoly, "from_terms")
    assert not hasattr(ClassificationResult, "matrix_terms")
    assert not hasattr(LogPFGrowth, "matrix_terms")
    for kind in (MassPoly, QLaurent):
        assert issubclass(kind, LaurentTerms)
        assert not {"__post_init__", "from_dict", "to_json", "zero", "is_zero"} & set(vars(kind))
