"""The repository benchmark: host time of the simulator, end to end and by layer.

See ``perfbench/README.md``.  The simulator under ``src/`` is measured from
the outside only; nothing in this package is imported by it.
"""
