GO ?= go

.PHONY: tier1 race bench bench-contract bench-pair results check docs fmt fuzz-smoke chaos loc

# tier1 is the gating check: vet, build, and the full test suite.
tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# race runs the concurrency-sensitive packages (the parallel experiment
# engine including the sharded-engine paths, the parallel ANN trainer, the
# simulation kernel including the sharded conservative-time engine, the
# transports including the crucible matrix and its sharded cells, the
# broker, the chaos engine, and the adaptation loop (core + dds hot-swap
# path)) under the race detector.
race:
	$(GO) test -race ./internal/experiment ./internal/ann ./internal/sim \
		./internal/transport/... ./internal/broker \
		./internal/netem/... ./internal/core/... ./internal/dds/...

# fuzz-smoke gives every fuzz target a short budget; CI runs this to keep
# the corpora honest without burning minutes. make docs fails when a fuzz
# target is missing here.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecode$$ -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeSymbol -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeNak$$ -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeRepair$$ -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzParseSpec -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run NONE -fuzz FuzzWindow -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run NONE -fuzz FuzzFountDecode -fuzztime $(FUZZTIME) ./internal/transport/fountcast
	$(GO) test -run NONE -fuzz FuzzMatch -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzServerCommand -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzRouteCommand -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzClientRead -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzValidatePattern$$ -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/ann
	$(GO) test -run NONE -fuzz FuzzSigmoidExact -fuzztime $(FUZZTIME) ./internal/ann
	$(GO) test -run NONE -fuzz FuzzSchedule -fuzztime $(FUZZTIME) ./internal/netem/chaos
	$(GO) test -run NONE -fuzz FuzzShardedKernel -fuzztime $(FUZZTIME) ./internal/netem/chaos
	$(GO) test -run NONE -fuzz FuzzKernelOrder -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz FuzzRebind -fuzztime $(FUZZTIME) ./internal/transport/conformance
	$(GO) test -run NONE -fuzz FuzzSenderInput -fuzztime $(FUZZTIME) ./internal/transport/conformance
	$(GO) test -run NONE -fuzz FuzzReceiver -fuzztime $(FUZZTIME) ./internal/transport/conformance

# chaos runs the full transport crucible from the command line.
chaos:
	$(GO) run ./cmd/adamant-verify -chaos

# bench runs the allocation-sensitive micro benchmarks with allocation
# counters: the scheduler hot paths, the packet codec and the repair body's
# one-pass build and in-place decode, the ANN inference and training kernels
# (0 allocs/op on Run and Classify is the pin) and the load of the shipped
# model, the decision path over the paper's grid, and the experiment engine
# end to end.
bench:
	$(GO) test -bench 'BenchmarkSchedule' -benchmem -run NONE ./internal/sim/
	$(GO) test -bench 'BenchmarkPacket|BenchmarkRepair' -benchmem -run NONE ./internal/wire/
	$(GO) test -bench 'BenchmarkRun|BenchmarkTrainEpoch|BenchmarkLoadAdamant' -benchmem -run NONE ./internal/ann/
	$(GO) test -bench 'BenchmarkSelectGrid' -benchmem -run NONE ./internal/core/
	$(GO) test -bench 'BenchmarkANN' -benchmem -benchtime 100x -run NONE .
	$(GO) test -bench 'BenchmarkRunMany|BenchmarkEndToEndSim' -benchmem -benchtime 3x -run NONE .

# bench-contract vets and tests the frozen benchmark against this tree.
# benchmark/ is a nested module, so tier1 at the root cannot see a change
# to an exported API or a behaviour that breaks it.
bench-contract:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-pair compares REF (default HEAD) with the working tree on one
# WORKLOAD of the frozen benchmark: PAIRS seed-paired alternating runs on
# fresh seeds and as many on the held-out seed (scripts/bench-pair.sh).
REF ?= HEAD
WORKLOAD ?= fanout_small
PAIRS ?= 10
bench-pair:
	scripts/bench-pair.sh $(REF) $(WORKLOAD) $(PAIRS)

# results regenerates every committed output (data/, results/) with its one
# command in place and fails, naming the files, when any differs from the
# committed copy (scripts/results.sh).
results:
	scripts/results.sh

# docs fails when README.md, DESIGN.md or EXPERIMENTS.md cites a ./cmd,
# ./internal or ./examples path, a make target, a test name, an
# adamant-<cmd> flag, a transport spec's protocol or a spec key that protocol
# does not read, or when the fuzz-smoke recipe misses a fuzz target.
docs:
	scripts/check-docs.sh

# loc prints the non-test Go lines per package under internal/ and cmd/,
# and the total of internal/transport, and fails when internal/broker,
# internal/dds, internal/core or internal/transport/... passes its line
# cap (scripts/loc.sh).
loc:
	scripts/loc.sh

# fmt fails, naming the files, when gofmt would change any.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; }

check: fmt tier1 race bench-contract docs loc
