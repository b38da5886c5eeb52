"""flashray benchmark package: ``python3 perfbench/run.py --help``."""
