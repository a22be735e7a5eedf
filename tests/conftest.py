import pytest

from hallcrys.classtable import ClassTable, TableSet
from hallcrys.exseq import CertificateEngine
from hallcrys.generic import GenericContext
from hallcrys.quivers import quiver_a2, quiver_a3, quiver_kronecker


@pytest.fixture(scope="session")
def a2():
    return quiver_a2()


@pytest.fixture(scope="session")
def a3():
    return quiver_a3()


@pytest.fixture(scope="session")
def kron():
    return quiver_kronecker()


class _Registry:
    """Shared tables / generic contexts / certificate engines per session; a
    context and an engine of the same quiver, bound and primes share one
    TableSet."""

    def __init__(self):
        self._tables = {}
        self._table_sets = {}
        self._ctxs = {}
        self._engines = {}

    def table(self, quiver, q, bound=None):
        bound = bound or (4,) * quiver.n
        key = (quiver, q, bound)
        if key not in self._tables:
            self._tables[key] = ClassTable(quiver, q, bound)
        return self._tables[key]

    def ctx(self, quiver, bound=None, primes=(2, 3, 5)):
        bound = bound or (3,) * quiver.n
        key = (quiver, bound, primes)
        if key not in self._ctxs:
            self._ctxs[key] = GenericContext(quiver, bound, primes,
                                             tables=self._table_set(key))
        return self._ctxs[key]

    def engine(self, quiver, bound=None, primes=(2, 3, 5)):
        bound = bound or (3,) * quiver.n
        key = (quiver, bound, primes)
        if key not in self._engines:
            self._engines[key] = CertificateEngine(quiver, bound, primes,
                                                   tables=self._table_set(key))
        return self._engines[key]

    def _table_set(self, key):
        if key not in self._table_sets:
            quiver, bound, _ = key
            self._table_sets[key] = TableSet(quiver, bound)
        return self._table_sets[key]


@pytest.fixture(scope="session")
def reg():
    return _Registry()
