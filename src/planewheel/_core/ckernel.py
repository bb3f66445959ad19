"""Build and load `kernel.c`, the compiled twin of the search kernel.

    search = load(build(directory))

`build` compiles kernel.c with the `cc` on PATH into a shared library in the
given directory; `load` returns a `search` with `search_py.search`'s signature
and result dict.  The package runs `search_py` and never imports this module;
the backend-equivalence tests and `benchmarks/bench_backends.py` do.
"""

import ctypes
import shutil
import subprocess
from pathlib import Path

from .search_py import STATUS_LIMIT, STATUS_SAT, STATUS_UNSAT

KERNEL_C = Path(__file__).with_name("kernel.c")
STATUS = {0: STATUS_UNSAT, 1: STATUS_SAT, 2: STATUS_LIMIT}
NO_MEMORY = -1
CFLAGS = ("-O2", "-Wall", "-Wextra", "-Werror")

WORD = (1 << 64) - 1

_INT, _INTS, _WORDS = ctypes.c_int, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_uint64)
_LEAF = ctypes.CFUNCTYPE(None, _INTS)
_ARGTYPES = (
    [_INT] * 3  # num_vertices, m, n_edges
    + [_INTS, _INTS, _WORDS, _INTS]  # ea, eb, cross, order
    + [_INT, _INTS, _INT]  # pre_count, pre_colors, mode
    + [ctypes.c_longlong, ctypes.c_double, _INT, _LEAF]  # limits, collect_all, on_leaf
    + [_INTS, ctypes.POINTER(ctypes.c_longlong), _INTS]  # witness, nodes, max_depth
    + [ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_double)]  # fingerprint, elapsed
)


def build(directory) -> Path:
    """Compile kernel.c into `directory`, every warning an error, and return the library's path."""
    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler `cc` on PATH")
    out = Path(directory) / "planewheel_kernel.so"
    subprocess.run([cc, "-shared", "-fPIC", *CFLAGS, str(KERNEL_C), "-o", str(out)], check=True)
    return out


def _within(seq, hi):
    return not seq or (min(seq) >= 0 and max(seq) < hi)


def _ints(seq):
    return (ctypes.c_int * len(seq))(*seq)


def load(path):
    """`search` of the library at `path`, a drop-in for `search_py.search`."""
    fn = ctypes.CDLL(str(path)).pw_search
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int

    def search(num_vertices, m, ea, eb, cross, order, pre_colors, mode, node_limit, time_limit, collect_all):
        n = len(ea)
        if not (
            len(eb) == len(order) == len(cross) == n
            and _within(ea, num_vertices) and _within(eb, num_vertices) and _within(order, n)
            and all(row >= 0 and not row >> n for row in cross)
            and _within(pre_colors, m)
        ):
            raise ValueError("kernel input sizes or indices out of range")
        words = (n + 63) // 64  # each row as 64-bit words, lowest bits first
        cross_words = (ctypes.c_uint64 * (n * words))(*[row >> 64 * i & WORD for row in cross for i in range(words)])
        solutions = []
        on_leaf = _LEAF(lambda colors: solutions.append(colors[:n]))
        witness = (ctypes.c_int * n)()
        nodes, max_depth = ctypes.c_longlong(), ctypes.c_int()
        fingerprint, elapsed = ctypes.c_uint64(), ctypes.c_double()
        code = fn(
            num_vertices, m, n, _ints(ea), _ints(eb), cross_words,
            _ints(order), len(pre_colors), _ints(pre_colors), mode, node_limit or 0, time_limit or 0.0,
            collect_all, on_leaf, witness, ctypes.byref(nodes), ctypes.byref(max_depth),
            ctypes.byref(fingerprint), ctypes.byref(elapsed),
        )
        if code == NO_MEMORY:
            raise MemoryError("kernel.c could not allocate its search state")
        status = STATUS[code]
        return {
            "status": status,
            "assignment": list(witness) if status == STATUS_SAT and not collect_all else None,
            "solutions": solutions if collect_all else None,
            "nodes": nodes.value,
            "max_depth": max_depth.value,
            "fingerprint": fingerprint.value,
            "elapsed": elapsed.value,
        }

    return search
