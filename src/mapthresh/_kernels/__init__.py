"""Hot-loop kernels: the penalized size scan and the EM iteration."""

from ._py import em_loop, penalized_scan

__all__ = ["penalized_scan", "em_loop"]
