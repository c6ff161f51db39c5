"""Float raster type shared by the optics and imaging modules."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Image:
    """Row-major float raster with values in [0, 1].

    ``data`` has shape (height, width, channels); channels is 1 or 3.
    """

    width: int
    height: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        arr = np.asarray(self.data, dtype=float).reshape(
            self.height, self.width, self.channels
        )
        if arr.size == 0:
            raise ValueError("image must be non-empty")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Image":
        """Build from an (h, w) or (h, w, c) array, clamping to [0, 1]."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, c = arr.shape
        return Image(width=w, height=h, channels=c, data=arr)

    @staticmethod
    def full(width: int, height: int, value: float, channels: int = 1) -> "Image":
        return Image.from_array(np.full((height, width, channels), value))

    def gray(self) -> np.ndarray:
        """Channel-mean view used by intensity metrics."""
        if self.channels == 1:
            return self.data[:, :, 0]
        return self.data.mean(axis=2)
