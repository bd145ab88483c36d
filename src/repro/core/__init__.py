"""Public high-level API: factor matrices with any elimination tree."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.api": ("qr", "QRResult"),
})
