GO ?= go

.PHONY: build test check fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: gofmt cleanliness, go vet, and the full
# suite under the race detector (the obs package is lock-free atomics;
# -race is what keeps it honest).
check:
	sh scripts/check.sh

fmt:
	gofmt -w .

# bench runs the one benchmark every PR is judged by (benchmark/README.md).
bench:
	bash benchmark/run.sh --workload all
