"""Search kernel backends.  The package runs the pure-Python kernel
`search_py`, which is also the behavioural reference.  Its compiled twin,
`kernel.c`, is built and loaded on demand through `ckernel` by the
backend-equivalence tests and `benchmarks/bench_backends.py`; importing the
package never loads it.  The two search the same tree under the same pruning
conditions, each over its own conflict layout."""

from planewheel._core import search_py

BACKEND = "python"

search = search_py.search


def backends():
    """Every backend the package can run, by name, for benchmarks."""
    return {"python": search}
