"""Exact polynomial / rational-function arithmetic over root variables."""

from . import kernel
from .poly import MultiPoly, poly_str
from .rational import RootContext, RootRational, form_str

# The one polynomial kernel; benchmark records name it to stay comparable.
BACKEND_NAME = "pure-python"

__all__ = [
    "BACKEND_NAME",
    "MultiPoly",
    "RootContext",
    "RootRational",
    "form_str",
    "kernel",
    "poly_str",
]
