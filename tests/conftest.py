"""Pin the BLAS libraries to one thread before numpy loads.

The solver's factorizations are small (a 125x125 LU and a 40x40 eig per
cost), and threaded BLAS runs them slower than one thread does.  Values
already set in the environment are kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
