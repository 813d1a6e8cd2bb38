"""Power unit conversions; the one place dBm meets linear milliwatts."""

from __future__ import annotations

import numpy as np


def dbm_to_milliwatts(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)

