"""The repository benchmark: hands-off Corleone runs, end to end and by layer.

See ``perfbench/README.md``; run ``python3 perfbench/run.py --help``.
"""
