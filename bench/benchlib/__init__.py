"""The repo's benchmark: workload generators, drivers, the outside-in
span recorder, and the statistics they share.  See ``bench/README.md``."""
