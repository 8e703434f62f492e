import os
import sys

# One BLAS thread, set before numpy is first imported: the numbers do not
# depend on it, and on a small machine extra threads only contend.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))
