"""The LAPACK and BLAS routines the solvers call, loaded without scipy.linalg."""

import numpy as np
import pytest
import scipy.linalg

from fuzzyheat import _lapack

from test_cli import run_python


def spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def calls(lapack, blas, rng):
    """Every routine the solvers call, each on random inputs; returns all
    their outputs, in order."""
    n, kd = 12, 2
    dense = spd(rng, n)
    dense[np.abs(np.subtract.outer(range(n), range(n))) > kd] = 0.0
    band = np.zeros((kd + 1, n))  # upper band form
    for i in range(kd + 1):
        band[kd - i, i:] = np.diagonal(dense, i)
    u, info = lapack.dpbtrf(band, lower=0)
    b = rng.standard_normal((n, 2))
    out = [u, info, *lapack.dtbtrs(u, b, trans="T"), *lapack.dtbtrs(u, b[:, 0])]

    c, info = lapack.dpotrf(spd(rng, 5), lower=0)
    out += [c, info, *lapack.dpotrs(c, rng.standard_normal(5))]

    dl, d, du = rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    *lu, info = lapack.dgttrf(dl, d, du)
    out += [*lu, info, *lapack.dgttrs(*lu, rng.standard_normal(n))]

    a = rng.standard_normal((4, 3))
    out += [blas.dsyrk(-1.0, a, beta=1.0, c=spd(rng, 3), trans=1),
            blas.dgemv(-1.0, a, rng.standard_normal(4), 1.0, rng.standard_normal(3), trans=1),
            blas.dgemv(-1.0, a, rng.standard_normal(3), 1.0, rng.standard_normal(4)),
            blas.dnrm2(rng.standard_normal(7) * 1e200)]
    return out


@pytest.mark.parametrize("seed", range(5))
def test_routines_match_scipy_linalg_bit_for_bit(seed):
    ours = calls(_lapack.lapack, _lapack.blas, np.random.default_rng(seed))
    theirs = calls(scipy.linalg.lapack, scipy.linalg.blas, np.random.default_rng(seed))
    assert len(ours) == len(theirs) == 22
    for mine, reference in zip(ours, theirs):
        assert np.asarray(mine).tobytes() == np.asarray(reference).tobytes()


def test_band_cholesky_factors_the_plate_layout_in_place():
    """The plate assembles ``K_ll`` as the transpose of a C-ordered
    ``(n, kd + 1)`` array, so in F-contiguous upper band storage, and
    factors it with ``overwrite_ab=1``: ``?pbtrf`` returns that buffer,
    holding the same bits as a factor into a copy."""
    rng = np.random.default_rng(7)
    n, kd = 12, 3
    dense = spd(rng, n)
    ab = np.zeros((n, kd + 1)).T
    for i in range(kd + 1):
        ab[kd - i, i:] = np.diagonal(dense, i)
    assert ab.flags.f_contiguous
    copied, info = _lapack.lapack.dpbtrf(ab, lower=0)
    assert info == 0 and not np.shares_memory(copied, ab)
    factor, info = _lapack.lapack.dpbtrf(ab, lower=0, overwrite_ab=1)
    assert info == 0 and np.shares_memory(factor, ab)
    assert factor.tobytes() == copied.tobytes() and ab.tobytes() == copied.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_solves_match_one_column_at_a_time(k):
    """The plate's sweep substitutes the modal load and its slopes as one
    ``k``-column block: each column gets the same bits from ``?tbtrs``
    (both ``trans``) and ``?potrs`` as it gets alone."""
    rng = np.random.default_rng(k)
    n, kd = 60, 6
    dense = spd(rng, n)
    ab = np.zeros((kd + 1, n))
    for i in range(kd + 1):
        ab[kd - i, i:] = np.diagonal(dense, i)
    u = _lapack.lapack.dpbtrf(ab, lower=0)[0]
    b = np.asfortranarray(rng.standard_normal((n, k)))
    for trans in ("N", "T"):
        block = _lapack.lapack.dtbtrs(u, b, trans=trans)[0]
        for j in range(k):
            alone = _lapack.lapack.dtbtrs(u, b[:, j].copy(), trans=trans)[0]
            assert block[:, j].tobytes() == alone.tobytes()
    for m in (7, 64, 300):
        c = _lapack.lapack.dpotrf(spd(rng, m), lower=0)[0]
        b = np.asfortranarray(rng.standard_normal((m, k)))
        block = _lapack.lapack.dpotrs(c, b)[0]
        for j in range(k):
            assert block[:, j].tobytes() == _lapack.lapack.dpotrs(c, b[:, j].copy())[0].tobytes()


def test_scipy_linalg_imports_after_the_loader():
    """The loaded extension modules are kept out of ``sys.modules``, so a
    later ``import scipy.linalg`` loads its own and sets its attributes."""
    code = (
        "import sys\n"
        "from fuzzyheat import _lapack\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import numpy as np, scipy.linalg\n"
        "assert scipy.linalg._flapack.dpbtrf is scipy.linalg.lapack.dpbtrf\n"
        "assert scipy.linalg._fblas.dnrm2 is scipy.linalg.blas.dnrm2\n"
        "a = np.array([[4.0, 1.0], [1.0, 3.0]])\n"
        "assert (scipy.linalg.cholesky(a) == _lapack.lapack.dpotrf(a)[0]).all()\n"
        "print('ok')\n"
    )
    assert run_python(code) == "ok\n"


def test_falls_back_to_scipy_linalg_without_the_extension_files():
    """Where the finder does not see ``_flapack`` or ``_fblas`` in scipy's
    ``linalg`` directory, both names come from ``scipy.linalg``."""
    code = (
        "import sys\n"
        "from importlib.machinery import PathFinder\n"
        "find_spec = PathFinder.find_spec\n"
        "def hidden(name, path=None, target=None):\n"
        "    # The loader's own lookup only; scipy.linalg's imports find them.\n"
        "    if name.startswith('scipy.linalg.') and 'scipy.linalg' not in sys.modules:\n"
        "        return None\n"
        "    return find_spec(name, path, target)\n"
        "PathFinder.find_spec = hidden\n"
        "from fuzzyheat import _lapack\n"
        "import scipy.linalg\n"
        "assert _lapack.lapack is scipy.linalg.lapack and _lapack.blas is scipy.linalg.blas\n"
        "from fuzzyheat.fem2d import PlateParameters, BoundaryConditionSet, solve_crisp\n"
        "from fuzzyheat.mesh import generate_structured_mesh\n"
        "T = solve_crisp(generate_structured_mesh(20.0, 10.0, 3, 3), PlateParameters(),\n"
        "                BoundaryConditionSet())\n"
        "print(T.max())\n"
    )
    assert run_python(code) == "100.0\n"


def test_falls_back_to_scipy_linalg_when_an_extension_does_not_load():
    """Where loading ``_flapack`` or ``_fblas`` from scipy's ``linalg``
    directory raises ``ImportError``, both names come from ``scipy.linalg``."""
    code = (
        "import sys\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "create_module = ExtensionFileLoader.create_module\n"
        "def failing(self, spec):\n"
        "    # The loader's own load only; scipy.linalg's imports succeed.\n"
        "    if spec.name == 'scipy.linalg._fblas' and 'scipy.linalg' not in sys.modules:\n"
        "        raise ImportError('cannot load ' + spec.name)\n"
        "    return create_module(self, spec)\n"
        "ExtensionFileLoader.create_module = failing\n"
        "from fuzzyheat import _lapack\n"
        "import scipy.linalg\n"
        "assert _lapack.lapack is scipy.linalg.lapack and _lapack.blas is scipy.linalg.blas\n"
        "print(_lapack.lapack.dgttrs is scipy.linalg._flapack.dgttrs)\n"
    )
    assert run_python(code) == "True\n"
