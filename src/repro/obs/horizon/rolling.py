"""A re-export of the dataset digest's hour fold.

The hour chain that used to live here as a separate "rolling" digest
is now the only dataset digest, defined once in
:mod:`repro.core.dataset` (:meth:`~repro.core.dataset.MeasurementDataset.digest`,
:func:`~repro.core.dataset.fold_block`).  This module is kept only so
the benchmark's layer table (``bench/leg.py``) still resolves its
``obs.horizon.rolling.fold`` layer; nothing in ``src/`` imports it.
"""

from repro.core.dataset import fold_block

__all__ = ["fold_block"]
