GO ?= go
TMPDIR ?= /tmp

.PHONY: all build vet lint lint-negative analyze test race bench benchmark benchmark-quick tables soak fuzz reproduce clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own multi-analyzer vettool — hot-path allocation,
# lane affinity, determinism, and pooled-packet discipline (see
# docs/LINTS.md) — on top of go vet, then staticcheck when it is
# installed. CI pins the staticcheck release (see staticcheck.conf).
# doclinks.sh checks that the repository paths the docs name still exist.
lint: vet
	$(GO) build -o $(TMPDIR)/simlint ./tools/simlint
	$(GO) vet -vettool=$(TMPDIR)/simlint ./...
	./scripts/doclinks.sh
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

# lint-negative proves the linter bites: a heap allocation seeded into
# ExecBatch must fail the vettool build.
lint-negative:
	./scripts/simlint_negative.sh

# analyze statically checks the four paper services sharing Ring(20):
# cross-service conflicts, loops, blackholes, and the DFS invariant.
analyze:
	$(GO) run ./cmd/smartsouth -topo ring -n 20 -service snapshot \
		-install anycast,blackhole-counter,critical \
		-programs $(TMPDIR)/progs.json -topo-json $(TMPDIR)/topo.json >/dev/null
	$(GO) run ./cmd/oflint -topo $(TMPDIR)/topo.json -prove-dfs snapshot $(TMPDIR)/progs.json

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark is the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload untraced then traced, ~4 min. benchmark-quick runs the
# same harness on tiny topologies in seconds; both exit non-zero when an
# oracle rejects an answer.
benchmark:
	bash bench/run.sh

benchmark-quick:
	bash bench/run.sh -quick

tables:
	$(GO) run ./cmd/benchtable

soak:
	$(GO) run ./cmd/soak -iters 500

fuzz:
	$(GO) test -fuzz FuzzParseFlowMod -fuzztime 30s ./internal/ofwire/

reproduce:
	./scripts/reproduce.sh

clean:
	rm -f test_output.txt bench_output.txt benchtable_output.txt
