"""Fixed reference work that measures how fast the host runs right now.

    python3 bench/calibrate.py

``run.py`` times this script in a fresh child process next to every op and
scales the op's wall time by it (``wall_cal_s``).  It does the kinds of work
a ``fracstar`` CLI call does: a fresh interpreter importing numpy and scipy,
dense LU and Cholesky factor/solve, a sparse LU solve, a pure-Python loop
and float-to-text formatting.  It never imports ``fracstar``, so a change to
the program cannot change what it measures.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

rng = np.random.default_rng(12345)

a = rng.standard_normal((300, 300))
a = a @ a.T + 300.0 * np.eye(300)
for _ in range(4):
    sla.lu_solve(sla.lu_factor(a), a)
    sla.cho_solve(sla.cho_factor(a), a)

n = 20000
ones = np.ones(n - 1)
lu = spla.splu(sp.diags([-ones, 4.0 * np.ones(n), -ones], [-1, 0, 1], format="csc"))
for _ in range(20):
    lu.solve(rng.standard_normal(n))

acc = 0
for i in range(200000):
    acc += i % 7

"\n".join(",".join("%.17g" % v for v in row) for row in rng.standard_normal((3000, 8)))
