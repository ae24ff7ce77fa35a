# Development targets for the bear repository.

GO ?= go

.PHONY: all build vet test race cover bench fuzz experiments examples clean cluster-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz passes over every fuzz target.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoadEdgeList -fuzztime=30s ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzLoadMatrixMarket -fuzztime=30s ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzLoadDynamic -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzDynamicUpdate -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzSniffLoad -fuzztime=30s ./server/
	$(GO) test -run='^$$' -fuzz=FuzzReadSnapshot -fuzztime=30s ./server/
	$(GO) test -run='^$$' -fuzz=FuzzCandidatesRequest -fuzztime=30s ./server/
	$(GO) test -run='^$$' -fuzz=FuzzWireEncode -fuzztime=30s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire/

# Boot 3 real shards + a bearfront, kill one shard under load, assert
# failover/ejection/repair over real sockets.
cluster-smoke:
	scripts/cluster_smoke.sh

# Regenerate the paper's tables and figures (writes CSVs to results/).
experiments:
	$(GO) run ./cmd/bearbench -exp all -csv results -bars

examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

clean:
	rm -rf results
