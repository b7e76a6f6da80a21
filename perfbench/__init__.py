"""Whole-run benchmark of the Air-FedGA simulator (see ``perfbench/README.md``)."""
