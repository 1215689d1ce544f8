GO ?= go

.PHONY: build test fmt vet lint race bench benchjson bench-e2e bench-test verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt is a gate: any file it would rewrite fails the target.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt would rewrite:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# Determinism-contract multichecker (detlint, maporder, errwrap,
# seedplumb, ckptset, deadexport) over every package. See DESIGN.md
# "Determinism contract".
lint:
	$(GO) run ./cmd/lint ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: three one-iteration passes of
# every benchmark, merged by cmd/benchjson into one record each in
# BENCH.json (the fewest allocs/op and B/op, the median ns/op): one op's
# allocation count is not stable. CI uploads the file as a per-commit
# artifact.
benchjson:
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=1x -count=3 ./... | $(GO) run ./cmd/benchjson > BENCH.json

# The repo benchmark (benchmark/README.md), short: every workload for 2 s,
# untraced. Each workload ends in one JSON result line and fails the
# target if any operation's oracle does.
bench-e2e:
	bash benchmark/run.sh --workload all --seconds 2 --trace 0

# The benchmark harness's own tests. It is a module of its own
# (benchmark/go.mod), so `go test ./...` does not reach it.
bench-test:
	$(GO) test -C benchmark ./...

# The full gate: everything must pass before a change lands. This is the
# definition; verify.sh is a one-line call of it.
verify: build fmt vet lint race bench-test
