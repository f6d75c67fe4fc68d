GO ?= go

.PHONY: all build test race lint fmt bench tlc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the stock vet suite plus skipit-vet, the project's own
# go/analysis suite: the interprocedural analyzers (detflow, hotalloc) plus
# determinism, poolown, nextevent, metricname and staleignore. The ./... pattern covers internal/analysis and cmd/ too, so
# the analyzers lint themselves. See internal/analysis/README.md for the
# rules and the waiver syntax; pass `-cache DIR` to skipit-vet (as CI does)
# to replay unchanged packages from the fact-store cache.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/skipit-vet ./...

fmt:
	gofmt -w ./cmd ./internal

bench:
	$(GO) test ./internal/bench -run '^$$' -bench . -benchmem -benchtime 50x

# tlc runs the fixed-seed protocol-level agent sweep CI uses (see
# cmd/skipit-tlc; failures shrink to .tlc.json artifacts in /tmp/tlc-repros).
tlc:
	mkdir -p /tmp/tlc-repros
	$(GO) run ./cmd/skipit-tlc -episodes 2000 -seed 1 -out /tmp/tlc-repros
