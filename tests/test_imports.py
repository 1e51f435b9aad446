import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import trilag
from trilag.basis import BasisSpec
from trilag.potentials import KratzerParams, MorseParams, YukawaParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["trilag"] + sorted("trilag." + m.name for m in pkgutil.iter_modules(trilag.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs():
    # perfbench/tracer.py imports every trilag module it names and wraps
    # their public functions; a module it names that is gone fails here
    tracer = _load_tracer()
    original = trilag.bound_states
    t = tracer.Tracer().install()
    try:
        assert trilag.bound_states is not original
    finally:
        t.uninstall()
    assert trilag.bound_states is original


def test_benchmark_tracer_sees_each_family():
    # the tracer patches the matrix functions' module-global names, so each
    # family's matrix method must call its function by that name for the
    # potentials.<family>_s layer metrics to read anything
    tracer = _load_tracer()
    cases = [
        (YukawaParams(1.0, 0.5), BasisSpec(1.0, 0, 12), "yukawa_matrix", "yukawa_classical"),
        (YukawaParams(1.0, 0.5, 0.5, "cosine"), BasisSpec(1.0, 0, 12), "yukawa_matrix",
         "yukawa_cosine"),
        (KratzerParams(1.0, 5.0), BasisSpec(1.0, 2, 12), "kratzer_matrix", "kratzer"),
        (MorseParams(-6.0, 4.0, 1.5, 0.8), BasisSpec(6.0, 1, 12), "morse_matrix", "morse"),
    ]
    t = tracer.Tracer().install()
    try:
        t.enabled = True
        for params, basis, _, _ in cases:
            trilag.bound_states(params, basis)
    finally:
        t.uninstall()
    recorded = {(s.name, s.tag) for s in t.spans}
    for _, _, name, family in cases:
        assert ("potentials." + name, (family, 12)) in recorded
    metrics = tracer.layer_metrics(t.spans, 1, 0.0)
    assert all(metrics["potentials.%s_s" % f] > 0 for f in tracer.FAMILIES)


def test_only_quadrature_binds_dsyrk():
    # every Gram product is quadrature._gram, the one place that decides how
    # a signed sum of dsyrk products is accumulated and mirrored
    binders = [m for m in MODULES if hasattr(importlib.import_module(m), "dsyrk")]
    assert binders == ["trilag.quadrature"]


def _run_fresh(*snippets):
    """Standard output of the snippets, run in turn in a fresh interpreter on
    this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    code = "".join(textwrap.dedent(s) for s in snippets)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_table_runs_without_scipy_linalg():
    # trilag._lapack loads the wrappers' extension modules from their files;
    # this test session has imported scipy.linalg, so only a fresh process shows it
    out = _run_fresh("""
        import sys
        import trilag, trilag.cli
        code = trilag.cli.main(["table", "1"])
        print(code, [m for m in ("scipy.linalg", "numpy.f2py") if m in sys.modules])
    """)
    assert out.splitlines()[-1] == "0 []"


def test_one_wrapper_module_per_process():
    # a later import of scipy.linalg reuses the extension modules _lapack loaded
    import scipy.linalg.blas
    import scipy.linalg.lapack

    from trilag import eigen, quadrature

    assert eigen.dsterf is scipy.linalg.lapack.dsterf
    assert quadrature.dsyrk is scipy.linalg.blas.dsyrk


# the 100 energies of one table-1 cell (cosine well, delta = 0.5), in hex
_CELL_ENERGIES = """
    from trilag import BasisSpec, YukawaParams, bound_states
    result = bound_states(YukawaParams(1.0, 0.5, 0.5, "cosine"), BasisSpec(1.0, 0, 100))
    print(" ".join(float(e).hex() for e in result.energies))
"""


def test_fallback_without_extension_files():
    # with no extension suffix to try, _lapack finds no file and takes the
    # wrappers from scipy.linalg.lapack and .blas: the same bits
    fallback = _run_fresh("""
        import importlib.machinery
        import sys
        importlib.machinery.EXTENSION_SUFFIXES.clear()
        from trilag import _lapack
        assert _lapack.lapack is sys.modules["scipy.linalg.lapack"]
        assert _lapack.blas is sys.modules["scipy.linalg.blas"]
    """, _CELL_ENERGIES)
    direct = _run_fresh("""
        import sys
        from trilag import _lapack
        assert _lapack.lapack is sys.modules["scipy.linalg._flapack"]
        assert _lapack.blas is sys.modules["scipy.linalg._fblas"]
        assert "scipy.linalg" not in sys.modules
    """, _CELL_ENERGIES)
    assert len(direct.split()) == 100
    assert fallback == direct
