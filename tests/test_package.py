import bosewave
from bosewave import analysis, dispersion, model, simulate


def test_package_exports_each_module_all():
    modules = (analysis, dispersion, model, simulate)
    want = {name for module in modules for name in module.__all__} | {"__version__"}
    assert set(bosewave.__all__) == want
    assert len(bosewave.__all__) == len(want)
    for module in modules:
        for name in module.__all__:
            assert getattr(bosewave, name) is getattr(module, name)
    assert bosewave.__version__ == "0.1.0"
