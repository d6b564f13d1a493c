"""Reference implementations shared by the kernel tests.

Each function is an earlier implementation, kept only as an oracle for the
code that replaced it.
"""

import numpy as np


def ref_pos3(x):
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size == 2:
        p = np.append(p, 0.0)
    if p.size == 1:
        p = np.array([p[0], 0.0, 0.0])
    return p.reshape(3)
