"""Support modules of the serving benchmark (see perfbench/README.md)."""
