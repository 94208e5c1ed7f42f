"""Statistical engines backing the 35 CRData tools.

The package imports none of its submodules: each CRData tool imports
its engine when it first runs, so deploying the catalog loads no
numerics (``clustering``, ``diffexpr``, ``qc``, ``rnaseq`` and
``survival`` need SciPy).
"""
