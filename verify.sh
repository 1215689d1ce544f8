#!/bin/sh
# The full verification gate is `make verify` (build, gofmt, vet, lint, race
# suite, benchmark harness tests); this script only calls it, for CI and
# for muscle memory.
exec make verify
