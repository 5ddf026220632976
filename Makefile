GO ?= go

.PHONY: build vet test race fmt-check lint-logs lint-layers loc knobs bench profile-train profile-update bench-e2e bench-e2e-selfcheck bench-pairs fuzz cover ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc prints the figure every PR quotes for "what did this let us delete":
# lines of non-test Go outside bench/, per package directory and in total.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# knobs prints collabd's flag names and their count, then the exported With*
# options of internal/core and internal/remote and theirs: the independently
# settable values a PR quotes next to loc. Then the surface inventory: the
# collab_* metric families program code registers, and the core.Stats keys
# /v1/stats serves, each list with its count.
knobs:
	@$(GO) build -o "$${TMPDIR:-/tmp}/collabd-knobs" ./cmd/collabd
	@"$${TMPDIR:-/tmp}/collabd-knobs" -h 2>&1 | awk '/^  -/ { print $$1; n++ } END { printf "%d flags\n", n }'
	@rm -f "$${TMPDIR:-/tmp}/collabd-knobs"
	@for p in core remote; do $(GO) doc -short ./internal/$$p | \
		awk -v p=$$p '$$1 == "func" && $$2 ~ /^With/ { sub(/\(.*/, "", $$2); print p "." $$2 }'; \
	done | awk '{ print; n++ } END { printf "%d options\n", n }'
	@grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"collab_[a-z_]+"' . | tr -d '"' | sort -u | \
		awk '{ print; n++ } END { printf "%d collab_* metric families\n", n }'
	@$(GO) doc ./internal/core Stats | \
		awk '/^type Stats struct/ { s = 1; next } s && /^}/ { exit } s && /^\t[A-Z][A-Za-z0-9]* +[^ ]/ { print "stats." $$1; n++ } \
		END { printf "%d /v1/stats keys\n", n }'

# bench runs every Go micro-benchmark once, with allocation counts: these are
# for reading curves while working on one layer (EXPERIMENTS.md cites the
# -bench/-benchtime used for each table), not for comparing commits — that is
# bench-pairs. What the *Overhead* and *Parallel benchmarks show is gated in
# `test` by count assertions (DESIGN.md "Benchmarks and what gates them").
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# profile-train takes a CPU profile of the client work that is the wall of
# the end-to-end ruler — Train and Evaluate of a GBT variant (kaggle_variants,
# tiered_variants, once reuse has removed the feature pipeline), W1's external
# KDE, which no reuse removes and every kaggle_cold pass recomputes, the
# quantile view every tree learner bins a column into, the logistic
# regression's Train and bare fit (openml_stream, shared_2c), the client
# compute of a whole kaggle_cold pass (W1–W8 at scale 2, in process) twice —
# once with nothing reused, so every workload recomputes the features it
# shares, and once on one default server, so each vertex is computed at most
# once, as a kaggle_cold pass executes it — a cold W1→W3 upload through
# the column codec (kaggle_cold), and the server's admission of a cold
# W1–W8 pass's upload bodies at scale 2, which validates and keeps their
# column records — at the ruler's shapes, and prints the top of each. Test binaries and profiles go to PROFILE_DIR, outside the
# repository.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/collab-profile
profile-train:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run=NONE -bench='TrainVariants/later|EvaluateVariants' -benchtime=200x \
		-o $(PROFILE_DIR)/ops.test -cpuprofile $(PROFILE_DIR)/ops.prof ./internal/ops
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/ops.test $(PROFILE_DIR)/ops.prof
	$(GO) test -run=NONE -bench='KDE2D' -benchtime=20x \
		-o $(PROFILE_DIR)/ops.test -cpuprofile $(PROFILE_DIR)/ops-kde.prof ./internal/ops
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/ops.test $(PROFILE_DIR)/ops-kde.prof
	$(GO) test -run=NONE -bench='Quantiles' -benchtime=20000x \
		-o $(PROFILE_DIR)/data.test -cpuprofile $(PROFILE_DIR)/data-quantiles.prof ./internal/data
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/data.test $(PROFILE_DIR)/data-quantiles.prof
	$(GO) test -run=NONE -bench='TrainLogreg$$' -benchtime=100x \
		-o $(PROFILE_DIR)/ops.test -cpuprofile $(PROFILE_DIR)/ops-logreg.prof ./internal/ops
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/ops.test $(PROFILE_DIR)/ops-logreg.prof
	$(GO) test -run=NONE -bench='LogisticRegressionFit$$' -benchtime=100x \
		-o $(PROFILE_DIR)/ml.test -cpuprofile $(PROFILE_DIR)/ml.prof ./internal/ml
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/ml.test $(PROFILE_DIR)/ml.prof
	$(GO) test -run=NONE -bench='ColdPassCompute$$' -benchtime=10x \
		-o $(PROFILE_DIR)/kaggle.test -cpuprofile $(PROFILE_DIR)/coldpass.prof ./internal/workloads/kaggle
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/kaggle.test $(PROFILE_DIR)/coldpass.prof
	$(GO) test -run=NONE -bench='ColdPassReuse$$' -benchtime=10x \
		-o $(PROFILE_DIR)/kaggle.test -cpuprofile $(PROFILE_DIR)/coldpass-reuse.prof ./internal/workloads/kaggle
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/kaggle.test $(PROFILE_DIR)/coldpass-reuse.prof
	$(GO) test -run=NONE -bench='UploadColdPass$$' -benchtime=5x \
		-o $(PROFILE_DIR)/remote.test -cpuprofile $(PROFILE_DIR)/upload.prof ./internal/remote
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/remote.test $(PROFILE_DIR)/upload.prof
	$(GO) test -run=NONE -bench='UploadAdmit$$' -benchtime=20x \
		-o $(PROFILE_DIR)/remote.test -cpuprofile $(PROFILE_DIR)/admit.prof ./internal/remote
	$(GO) tool pprof -top -nodecount=25 -focus=putArtifact $(PROFILE_DIR)/remote.test $(PROFILE_DIR)/admit.prof

# profile-update profiles the server's updater (Figure 2, step 5) on a
# 10 000-vertex Experiment Graph with explain on, collabd's default (an
# update does the same work with it off): CPU, then the bytes allocated, of a fixed number of 5-vertex updates (the
# graph grows by five vertices per update, so a fixed count keeps runs
# comparable).
profile-update:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run=NONE -bench='ServerUpdateAtScale/vertices=10000$$/explain=true' -benchtime=400x \
		-o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/update.prof \
		-memprofile $(PROFILE_DIR)/update-mem.prof ./internal/core
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/update.prof
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space $(PROFILE_DIR)/core.test $(PROFILE_DIR)/update-mem.prof

# bench-e2e is the end-to-end + per-layer ruler (bench/README.md): all five
# workloads through real Client.Run over loopback HTTP against a spawned
# collabd, untraced then traced, merged into bench/out/results.json.
bench-e2e:
	bench/run.sh

# bench-e2e-selfcheck runs two sets of the same code and fails when a pair of
# medians or a gated spread is outside its bound — the ruler measuring
# itself, to be run before trusting a comparison on a new host.
bench-e2e-selfcheck:
	bench/run.sh -selfcheck

# bench-pairs runs PAIRS alternating pairs of `go run ./bench` on one
# workload, PARENT (a commit, checked out into a temporary git worktree)
# against the working tree, and judges every end-to-end metric by the rules
# at the end of bench/README.md; CLAIM=<metric> marks the claimed gain. See
# scripts/benchpairs.sh.
PAIRS ?= 10
bench-pairs:
	@scripts/benchpairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)"

# fuzz replays the seed corpora and explores, for a short budget each, the
# column codec (corruption must never decode successfully), the blob record
# of models and aggregates (never a panic, and what it accepts re-encodes to
# the same bytes), the disk tier's manifest (the same, and no more entries
# than its bytes could hold), the artifact
# upload body (hostile bytes must never panic the handler or tear a store
# entry), the client's download decoder (never a panic, never a byte after
# the message accepted), the update body, which carries artifacts too (a
# refused update changes nothing), the optimize body (the planner and the warmstart
# search answer only about the request's vertices and change nothing), and
# the node list of a meta-data request (the update decoder accepts exactly
# the DAGs in topological order, and what it accepts merges into the
# Experiment Graph whole), and the keyed kernels of internal/data (the join,
# the group-by's key order and Distinct on two fuzzed key columns of any
# type pair agree with references that compare rendered keys), and the
# server's column record validation (it accepts exactly what the decoder
# accepts, and reports the ID, dtype, rows and size of what the decoder
# builds).
# -fuzzminimizetime bounds the minimizer, which otherwise spends its
# default minute on the first large input that widens coverage — an upload
# body of columns, a W1 update with its models inline — and explores nothing
# in a 10 s budget. Every target that takes the bound takes it by count, one
# minimizing exec per input: under a 1 s bound the minimizer still took most
# of the budget. In 12 s with a fresh fuzz cache on a 2-vCPU host, execs and
# new inputs at 1s against 1x: the update body 6 720 and 28 against 30 057
# and 149; the upload body 3 412 and 25 against 25 507 and 150; the download
# 9 175 and 28 against 72 022 and 150; the optimize body 5 185 and 25
# against 38 257 and 136; the node list 48 119 and 69 against 46 095 and
# 177 (34 610 and 66 against 53 403 and 179 run again); the column record
# validation 85 727 and 4 against 191 698 and 6 (81 677 and 4 against
# 159 046 and 6).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzColumnCodec -fuzztime=10s ./internal/tier/
	$(GO) test -run=NONE -fuzz=FuzzModelRecord -fuzztime=10s ./internal/tier/
	$(GO) test -run=NONE -fuzz=FuzzManifest -fuzztime=10s ./internal/tier/
	$(GO) test -run=NONE -fuzz=FuzzUploadDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzArtifactDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzUpdateDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzOptimizeDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzUpdateNodes -fuzztime=10s -fuzzminimizetime=1x ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzKeyedKernels -fuzztime=10s ./internal/data/
	$(GO) test -run=NONE -fuzz=FuzzValidateColumn -fuzztime=10s -fuzzminimizetime=1x ./internal/tier/

# lint-logs forbids unstructured logging in server-path packages: server
# logging goes through log/slog so every line can carry the propagated
# request ID (X-Collab-Request). Tests are exempt.
LOG_LINT_DIRS = internal/core internal/remote internal/obs internal/explain \
	internal/reuse internal/materialize internal/eg internal/store \
	internal/calib internal/tier internal/persist cmd/collabd
lint-logs:
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '\b(log\.Printf|log\.Println|log\.Fatal|fmt\.Printf|fmt\.Println)\(' $(LOG_LINT_DIRS) || true)"; \
	if [ -n "$$out" ]; then \
		echo "unstructured logging in server paths (use log/slog):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '\btime\.Now\(\)' $(TIME_LINT_DIRS) || true)"; \
	if [ -n "$$out" ]; then \
		echo "raw time.Now() in server paths (use obs.StartTimer/obs.Timestamp so calibration and tracing share one clock discipline):"; echo "$$out"; exit 1; \
	fi

# Server packages must take timestamps through internal/obs's sanctioned
# helpers (Stopwatch, Timestamp) rather than raw time.Now(), so measured
# durations feed calibration and tracing uniformly. internal/obs itself
# hosts the helpers and is exempt.
TIME_LINT_DIRS = internal/core internal/remote internal/explain \
	internal/reuse internal/materialize internal/eg internal/store \
	internal/calib internal/tier internal/persist cmd/collabd

# lint-layers keeps the kernels free of server wiring: the columnar and ML
# kernels, the operators, the DAG and the worker pool run on the client, so
# none of them may import the metrics registry's package. It also keeps one
# record of what is stored: the Experiment Graph records meta-data and the
# materializer decides, and what the store holds is handed to them as a
# predicate, so neither imports the store or its disk tier. And it keeps gob
# to what still reads or writes it: persist's Experiment Graph snapshot,
# which holds no artifact. Nothing the wire or the disk tier writes is gob
# (bench/, the ruler, is not linted).
# And it keeps one byte toolkit: internal/rec imports nothing of the
# repository, and is the only program code that computes a checksum. And it
# keeps the storage layers apart: the tier imports no layer above it, and the
# store, which keeps only policy over the tiers, does no file I/O — every
# artifact file is the tier's. And placement follows the order of accesses:
# the store reads no wall clock (obs.Timestamp, time.Now), so its demotion
# victims are a function of the order of accesses alone;
# obs.StartTimer stopwatches, which only measure, stay allowed. And the
# snapshot layer does not depend on the HTTP protocol: internal/persist
# imports no internal/remote. And the server relays column
# records: no program file of internal/remote or internal/store decodes one
# (tier.DecodeColumn) except in the two functions of DECODERS (their
# declarations with the blanks taken out) — the store's
# lazily filled decoded view of a memory-tier column, which an in-process
# Get reads, and the client's decoder of a download. And version 1 of the
# tier's files is named in one file: no program file but V1_REFUSER_FILE,
# whose Open refuses a directory holding a version-1 file, names a
# version-1 magic.
KERNEL_PKGS = ./internal/data ./internal/ml ./internal/ops ./internal/parallel ./internal/graph
DECISION_PKGS = ./internal/eg ./internal/materialize
ABOVE_TIER = repro/internal/(obs|cost|store|core|remote|persist)
V1_REFUSER_FILE = internal/tier/disk.go
GOB_FILES = internal/persist/persist.go
DECODERS = 'internal/store/store.go:func(c*column)decoded()' 'internal/remote/codec.go:funcdecodeColumns('
lint-layers:
	@out="$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' $(KERNEL_PKGS) | grep -w 'repro/internal/obs' || true)"; \
	if [ -n "$$out" ]; then \
		echo "kernel packages import repro/internal/obs:"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' $(DECISION_PKGS) | grep -wE 'repro/internal/(store|tier)' || true)"; \
	if [ -n "$$out" ]; then \
		echo "graph and materializer packages import the store:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"encoding/gob"' . | sed 's|^\./||' | grep -vxF $(addprefix -e ,$(GOB_FILES)) || true)"; \
	if [ -n "$$out" ]; then \
		echo "encoding/gob imported outside $(GOB_FILES):"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/rec | grep '^repro/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "the byte toolkit internal/rec imports the repository:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"hash/crc32"' . | sed 's|^\./||' | grep -v '^internal/rec/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "hash/crc32 imported outside internal/rec (seal records with rec.Seal):"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/tier | grep -xE '$(ABOVE_TIER)' || true)"; \
	if [ -n "$$out" ]; then \
		echo "the tier internal/tier imports a layer above it:"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/store | grep -x 'os' || true)"; \
	if [ -n "$$out" ]; then \
		echo "internal/store imports os (artifact files are internal/tier's to read and write)"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '\b(obs\.Timestamp|time\.Now)\(' internal/store || true)"; \
	if [ -n "$$out" ]; then \
		echo "internal/store reads the wall clock (placement follows the order of accesses):"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/persist | grep -x 'repro/internal/remote' || true)"; \
	if [ -n "$$out" ]; then \
		echo "internal/persist imports repro/internal/remote (the snapshot layer does not depend on the HTTP protocol)"; exit 1; \
	fi
	@out="$$(awk '/^func / { fn = $$0; gsub(/[ \t]/, "", fn) } /tier\.DecodeColumn([^A-Za-z0-9_]|$$)/ { print FILENAME ":" fn }' \
		$$(ls internal/remote/*.go internal/store/*.go | grep -v '_test\.go$$') | grep -vF $(addprefix -e ,$(DECODERS)) || true)"; \
	if [ -n "$$out" ]; then \
		echo "tier.DecodeColumn called in internal/remote or internal/store outside $(DECODERS):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'colMagicV1|frameMagicV1|blobMagicV1' . | sed 's|^\./||' | grep -v '^$(V1_REFUSER_FILE):' || true)"; \
	if [ -n "$$out" ]; then \
		echo "a version-1 magic named outside $(V1_REFUSER_FILE) (only the tier's Open looks for version 1, to refuse it):"; echo "$$out"; exit 1; \
	fi

# cover runs the full test suite with per-package coverage summaries.
cover:
	$(GO) test -cover ./...

# ci is the tier-1 gate: build, vet, formatting, log hygiene, kernel
# layering, tests with coverage (cover subsumes plain `test`; the cmd/collab
# and cmd/collabd tests exercise the CLI surface) and race tests. No
# wall-clock comparison gates: the overhead and scaling contracts are count
# assertions inside the tests, and end-to-end performance is judged by
# bench-pairs.
ci: build vet fmt-check lint-logs lint-layers cover race
