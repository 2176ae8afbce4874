#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, vet, and the
# full test suite under the race detector. Run via `make check`.
set -eu

cd "$(dirname "$0")/.."

# alternatives prints the alternatives of a test pattern's first group,
# each completed with the pattern's prefix and suffix — '^Test(A|B(C)?)$'
# gives '^TestA$' and '^TestB(C)?$' — or the pattern itself when it has
# no group.
alternatives() {
	printf '%s\n' "$1" | awk '{
		open = index($0, "(")
		if (open == 0) { print; next }
		depth = 0; start = open + 1; n = 0
		for (i = start; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "(") depth++
			else if (c == ")" && depth > 0) depth--
			else if (depth == 0 && (c == "|" || c == ")")) {
				alt[n++] = substr($0, start, i - start)
				start = i + 1
				if (c == ")") break
			}
		}
		for (j = 0; j < n; j++) print substr($0, 1, open - 1) alt[j] substr($0, i + 1)
	}'
}

# gate runs one named test gate: `gate ARGS...` is `go test ARGS...`, but
# first every alternative of its -run pattern (of its -fuzz pattern, for a
# fuzz smoke) must name a test in its packages. A gate whose pattern
# matches nothing would otherwise pass on nothing after a rename.
gate() {
	run= fuzz= pkgs= prev=
	for arg in "$@"; do
		case $prev in
		-run) run=$arg ;;
		-fuzz) fuzz=$arg ;;
		esac
		case $arg in
		-run=*) run=${arg#-run=} ;;
		-fuzz=*) fuzz=${arg#-fuzz=} ;;
		./*) pkgs="$pkgs $arg" ;;
		esac
		prev=$arg
	done
	pattern=${fuzz:-$run}
	listed=$(go test -list "$pattern" $pkgs)
	alternatives "$pattern" | while IFS= read -r alt; do
		if ! printf '%s\n' "$listed" | grep -v '^ok ' | grep -qE -- "$alt"; then
			echo "gate $pattern: $alt matches no test in$pkgs" >&2
			exit 1
		fi
	done || exit 1
	go test "$@"
}

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

# Citation gate: every test, fuzz target and benchmark DESIGN.md and
# README.md cite by name must exist, or a rename leaves the documents
# pointing at nothing. A trailing * cites a prefix, and {A,B} cites both
# spellings. One `go test -list` over every package names what exists.
listed=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)')
grep -noE '\b(Test|Fuzz|Benchmark)([A-Z0-9_]|\{[A-Za-z0-9_,]*\})([A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*\*?' DESIGN.md README.md |
	LISTED=$listed awk '
	function expand(s,    i, j, n, parts, k) {
		i = index(s, "{")
		if (i == 0) { alts[++nalts] = s; return }
		j = i + index(substr(s, i), "}") - 1
		n = split(substr(s, i + 1, j - i - 1), parts, ",")
		for (k = 1; k <= n; k++) expand(substr(s, 1, i - 1) parts[k] substr(s, j + 1))
	}
	function exists(name,    prefix, i) {
		if (name !~ /\*$/) return name in have
		prefix = substr(name, 1, length(name) - 1)
		for (i = 1; i <= nlisted; i++) if (index(names[i], prefix) == 1) return 1
		return 0
	}
	BEGIN { nlisted = split(ENVIRON["LISTED"], names, "\n"); for (i = 1; i <= nlisted; i++) have[names[i]] = 1 }
	{
		split($0, f, ":")
		nalts = 0
		expand(f[3])
		for (a = 1; a <= nalts; a++) if (!exists(alts[a])) { print f[1] ":" f[2] ": " alts[a] " names no test, fuzz target or benchmark" > "/dev/stderr"; bad = 1 }
	}
	END { exit bad }'
echo "citation gate ok"

# Path gate: every repo path DESIGN.md and README.md cite in backticks —
# one with a / under internal/, cmd/, benchmark/, scripts/ or examples/ —
# must exist, or a move or a deletion leaves the documents pointing at
# nothing. A bare file name (DESIGN.md's "Former file" column) is not a
# path.
missing=$(grep -noE '`(internal|cmd|benchmark|scripts|examples)/[^` ]*`' DESIGN.md README.md |
	while IFS= read -r hit; do
		path=${hit#*\`}
		[ -e "${path%\`}" ] || echo "$hit names no file or directory"
	done)
if [ -n "$missing" ]; then
	echo "$missing" >&2
	exit 1
fi
echo "path gate ok"

# Budget gates (ROADMAP item 10(a)): every CHANGES.md line from
# changes_from on — the entries appended since the budget was set; the
# file only grows at its end — is at most 1 500 characters, and DESIGN.md
# at most design_lines lines. The DESIGN.md bound is a ratchet: a change
# may lower it, never raise it.
changes_from=38
design_lines=1907
# Characters, not bytes: UTF-8 continuation bytes are dropped first.
long=$(tail -n +$changes_from CHANGES.md | LC_ALL=C tr -d '\200-\277' |
	awk -v from=$changes_from 'length($0) > 1500 { print "CHANGES.md:" from + NR - 1 ": " length($0) " characters, over 1500" }')
if [ -n "$long" ]; then
	echo "$long" >&2
	exit 1
fi
if [ "$(wc -l <DESIGN.md)" -gt "$design_lines" ]; then
	echo "DESIGN.md has $(wc -l <DESIGN.md) lines, over its budget of $design_lines" >&2
	exit 1
fi
echo "budget gates ok"

go test -race -shuffle=on ./...

# Chaos-recovery gate: the guardrail subsystem's end-to-end guarantee —
# injected NaN poisoning, torn checkpoints, and exploding learning rates
# (TestChaosExplodingLRBacksOff: each rollback halves the rate) must all
# recover via rollback + backoff — exercised explicitly under the race
# detector. -count=1 defeats the test cache so the gate always actually
# runs.
gate -race -count=1 -run '^TestChaos' ./internal/fault
# The same faults through the shipped path: cmd/clapf-train's run() with
# the poisoners on its after-batch seam — a mid-run trip, poison caught by
# the final checkpoint's gate (the run trains on, it does not report the
# restored step as finished), and a stop signal in the batch that trips.
gate -race -count=1 -run '^Test(TripRecovers|StopInTheBatchThatTrips)$' ./cmd/clapf-train
# guard.Supervisor.Run is the one loop that slices a run into batches,
# handles trips and gates checkpoints; clapf-train calls it.
if grep -rn --include='*.go' --exclude='*_test.go' -e 'trainLoop' -e 'HandleTrip(' -e 'GateCheckpoint(' . | grep -v '^\./internal/guard/' ||
	grep -rn --include='*.go' --exclude='*_test.go' 'RunSteps(' cmd; then
	echo "a second supervised loop: batching, trip handling and checkpoint gating belong to guard.Supervisor.Run" >&2
	exit 1
fi
echo "chaos-recovery gate ok"

# Trainer equivalence gate: every SGD objective with a linear risk —
# CLAPF-MAP/MRR, BPR (uniform, DNS, AoBPR, ABS negatives), MPR and
# CLAPF-Multi, the four objectives of internal/core/objective.go — runs
# one step kernel (internal/core/step.go) under one trainer, so an edit
# there moves all of them at once. Held here: seeded trajectories pinned
# to the bits of the pre-kernel, pre-objective loops, an instrumented and
# chunked run on the bits of the plain one, the kernel against a
# spelled-out reference and its λ = 0 reduction to BPR bit for bit, the
# golden metrics, and per objective: a mid-run checkpoint trailer
# resuming bit for bit, the finite-difference gradient of the step loss,
# and a poisoned model tripping the guard instead of spreading. -count=1
# defeats the test cache so the gate always actually runs.
gate -race -count=1 \
	-run '^Test(TrajectoryPinned|TrajectoryInstrumentedIsPlain|StepKernel|GoldenMetrics|Objective(Validation|ResumeBitIdentical|Gradients|GuardTripsOnPoison)|ABSScreensAgainstTheGivenPositive)' \
	./internal/core ./internal/baselines ./internal/experiments ./internal/sampling
# The kernel has one caller: a second NewKernel( outside internal/core is
# a second training loop.
if grep -rn --include='*.go' --exclude='*_test.go' 'NewKernel(' . | grep -v '^\./internal/core/'; then
	echo "NewKernel( outside internal/core: objectives plug into core.Trainer, they do not loop the kernel" >&2
	exit 1
fi
echo "trainer equivalence gate ok"

# Short fuzz smoke over the model-file loader: a few seconds of random
# inputs against the corrupt-file handling, on top of the seed corpus the
# regular tests already replay. The corpus seeds files of both widths,
# with flipped section and header bytes, a header that promises a 1 GiB
# section over 4 KB, and files of the retired versions 1 and 2; each input
# goes through the streaming loader and, as a file, store.Open and
# store.LoadMapped.
gate -run='^$' -fuzz='^FuzzLoad$' -fuzztime=5s ./internal/store

# Store gate: one file format at two widths. The layout, round trips bit
# for bit through every reader, mmap load/Verify/Close, store.Open picking
# the representation from the file's width and Export/Publish writing it
# back, a float32 file of the earlier writer still reading (and written)
# byte for byte, the corruption matrices (truncation at every byte, CRC
# flips, non-canonical section offsets and lengths, unknown flags, the
# retired versions 1 and 2) through every reader — all clean errors, never
# panics — and a header promising more than the stream holds refused
# within a bounded allocation. -count=1 defeats the test cache so the gate
# always actually runs.
gate -race -count=1 -run '^Test(Layout|V3StreamingLoad|RoundTrip|LoadMapped|Open|OldF32|LoadRejects|LoadTruncated|LoadBounds)' ./internal/store
echo "store gate ok"

# IVF fuzz smoke: adversarial factor matrices (NaN/Inf rows, zero norms,
# duplicates, nlist > items) against index construction and full-width
# search invariants.
gate -run='^$' -fuzz='^FuzzIVFBuild$' -fuzztime=5s ./internal/retrieval

# IVF retrieval smoke: build the index on a seeded world, query every
# user, and hold the recall@10 floor against exact retrieval — for the
# pruned float64 index and for a full-probe index over the float32
# factors, where any loss is quantization's — under the race detector
# because the index is queried concurrently in serving.
# -count=1 defeats the test cache so the gate always actually runs.
gate -race -count=1 -run '^TestIVFSmoke$' ./internal/retrieval
echo "ivf retrieval smoke ok"

# Batch-IVF gate: the /recommend/batch endpoint must answer through the
# installed retrieval index exactly like the single-request path (no
# silent dense fall-back), keep cache keys mode-scoped, and stay
# consistent across retrieval mode flips with batches in flight — the
# flip test races batches against SetRetrieval, hence the race detector.
# Beside serving float32 bit-for-bit (ServeFloat32), the representation
# must be statistically invisible next to float64: matched per-user
# Prec@5/NDCG@5, Welch p > 0.05 and at most 1 % of users' samples moved.
# Beside it, the evaluator itself: Evaluate, PerUserAtK and BucketEvaluate
# read each user's row off the positions of the test positives, and must
# equal the full candidate sort they replaced exactly (ties, test
# positives that are training positives, k past the candidate count, a
# model and its score.Engine); NaN and ±Inf rank one way in all three;
# and every worker count of the one goroutine fan-out gives the same bits.
# -count=1 defeats the test cache so the gate always actually runs.
gate -race -count=1 -run '^Test(BatchIVF|ModeFlip|ServeFloat32)' ./internal/serve
gate -race -count=1 -run '^Test(Float32ParityWithFloat64|EvaluateMatchesFullSort|NonFiniteScoresRankOneWay|EvaluateParallelBitIdentical)$' ./internal/eval
echo "batch-ivf gate ok"

# Fused exact-scan gate: exact retrieval is one streaming pass (score a
# tile, offer it to the shared rank.Selector), so the three things that
# keep it honest run by name. Bit-identity: the fused top-K — single and
# fold-in, over float64, float32 and overlaid parameters — and
# SearchCells at full probe width return the entries and the dropped count
# of rank.TopKDropped over the materialised row, planted NaN/±Inf rows and
# cross-tile ties included, that row — the one item scan under
# UserVector(u) — is Score(u, i) bit for bit on a model, float32 factors
# (heap and mapped) and an overlay, the selector itself matches a naive full-sort
# oracle, and its two tile loops (OfferRun, OfferIDs), which jump between
# survivors, match Offer called per item; the index build's assignment step matches the plain
# mathx.Dot loop bit for bit, and so does its sweep through the bound
# filter (cells, affinities and "moved", ties and zero rows included),
# as does the first sweep, a full scan of ⌈√k⌉ pilot centroids and then
# the bounded sweep from their cells, and ProbeCells' threshold selection and its
# best-first order a full sort of the affinities. Allocation: an exact-mode miss through the
# handler allocates nothing proportional to NumItems, and an IVF miss only
# its cell list and its k entries. Index build and reuse: the build is
# the same bits at GOMAXPROCS 1, 2 and 7 (the retrieval line runs again
# at -cpu 1,4, so the fan-out is exercised on a one-core runner too) and
# the bits recorded from the full-scan k-means (TestBuildIVFPinned);
# Index.Indexes is true for exactly the item half the index packed;
# SetRetrieval → EnableFeedback → SetCacheSize builds the IVF index once,
# an install of an unchanged item half keeps it, and install resolves the
# index before it takes the feedback sink's lock. -count=1 defeats the
# test cache so the gate always actually runs.
gate -race -count=1 -run '^Test(FusedTopKBitIdentical|ScanUnderUserVectorIsScore|WrongLengthUserVectorPanics)$' ./internal/score
gate -race -count=1 -run '^Test(SelectorMatchesNaive|OfferRunAndOfferIDsMatchOffer)$' ./internal/rank
retrieval_gate='^Test(SearchCellsMatchesTwoPass|FullSweepMatchesDot|BoundedAssignMatchesFullScan|FirstSweepPilotMatchesFullScan|ProbeCellsMatchesFullSort|WrongLengthQueryPanics|MissAllocatesOnlyItsResults|BuildIVFSameAcrossWorkers|BuildIVFPinned|IndexesMatchesOnlyItsOwnItems)$'
gate -race -count=1 -run "$retrieval_gate" ./internal/retrieval
gate -race -count=1 -cpu 1,4 -run "$retrieval_gate" ./internal/retrieval
gate -race -count=1 -run '^Test(ExactMissAllocatesNoScoreRow|IndexReusedAcrossReinstalls|InstallBuildsIndexOutsideSinkLock(Live)?)$' ./internal/serve
# The bound filter in front of both scans (below) skips rows; the answer
# must not move: TopKFoldIn and SearchCells, full and pruned, against
# rescoring every row, by Float64bits and dropped count. Without
# the race detector: nothing in it is concurrent, and it is the longest
# table in the gate.
gate -count=1 -run '^TestBoundFilterKeepsTheExactAnswer$' ./internal/retrieval
# The rows the filter lets through are copied together and rescored in one
# kernel call (mf's unexported scanMasked, which only mf.Sweep, the one
# filter-and-rescore loop, calls): exactly the rows the mask sets, each
# with the bits the unmasked scan gives it, at both widths.
gate -count=1 -run '^TestScanMaskedMatchesScan$' ./internal/mf
# A parameter set has one item scan and the serve path one miss: the
# stored-user scan methods stay off *Factors32 and *Overlay (a stored user
# is scored under UserVector(u)), and internal/serve ranks in exactly three
# calls — miss's ProbeCells, SearchCells and TopKFoldIn — which a batch
# entry reaches as a GET does.
if grep -nE '^func \([a-z]+ \*(Factors32|Overlay)\) Score(All|Range|AllFoldIn)\(' internal/mf/*.go ||
	[ "$(grep -hE '\.(ProbeCells|SearchCells|TopKFoldIn|TopK)\(' $(ls internal/serve/*.go | grep -v _test.go) |
		grep -vcE '^[[:space:]]*//')" != 3 ]; then
	echo "a parameter set has one item scan (ScoreRangeFoldIn) and the serve path one miss" >&2
	exit 1
fi
echo "fused exact-scan gate ok"

# Scan kernel gate: the catalog scans (mathx.ScanF64 over float64 rows,
# mathx.ScanF64F32 over float32 rows), the bound filter's scan of the
# catalog's int8 image, which answers the floor test itself with one mask
# bit a row (mathx.BoundI8, AVX2), and the selector's floor predicate
# (mathx.FirstNotBelow) are AVX kernels on amd64 and Go loops elsewhere,
# and the Go loops are the specification. By name, for each
# exact scan: kernel
# == loop by Float64bits over every d in 1..67, tile-edge row counts and
# every count of rows left over from its four a pass, odd offsets and the
# IEEE specials in every row of a pass; scan == the single-row kernel the
# other paths call (mathx.Dot; DotF64F32 == DotF32); a short v, b or out
# panics before a pointer is taken. The float64 scan over a row list
# (mathx.ScanF64Rows, the k-means sweep's rescoring) == mathx.Dot over
# lists of 0..9 ids, adjacent, descending, repeated and random; an id
# outside the matrix or a short out panics before a row is read. For the
# predicate: kernel == loop over every length in 0..67, every lane, odd
# offsets, a tie with the floor (returned), one ulp below it (not), NaN
# and ±Inf scores and floors. For
# the bound scan: kernel mask == the specification's (boundI8Go's s̃ under
# FirstNotBelow's predicate) over every d in 1..67, block counts around the
# 16-row block and the 512-row tile, odd offsets, special biases in every
# lane, the saturating extremes (every q = ±127 under every p = ±63), at
# thresholds NaN, ±Inf, ±1e300, a tie with s̃ (kept) and the next float64
# above it (dropped); Bound.Scan over unaligned spans; a query outside
# [−63, 63] refused; an image rebiased (Bound.WithBias) the bound built
# under those biases, field for field; Query's image, scale and E the
# bits of its builtin-max/min specification, NaN, ±Inf, ±0, subnormal and
# near-overflow queries included; its error bound E, which lets the top-K skip a row,
# holds (|s̃ − s| ≤ E, exactly, and Scan keeps a row at the threshold
# s − E) on cancelling, exactly quantised, subnormal and out-of-range
# catalogs; E with the ‖e‖₂·Qmax bound is never above E with e_q·Lmax
# alone, and its ‖e‖₂ is within 2⁻⁴⁰ of exact where every e_k² underflows;
# and the image marks non-finite rows and leaves them out of E's maxima.
# And a few seconds of raw bit patterns through both bodies of all four —
# FuzzBoundI8 builds the image and checks E too, and FuzzScanF64 reads its
# rows through a list as well.
# go vet's asmdecl checks the assembly's frames against their Go
# declarations. The arm64 cross-build keeps the portable bodies compiling
# (offline: no cgo, no downloads). The kernels never fuse multiply and add
# because the compiled Dot and DotF64F32 do not; at GOAMD64=v3 the
# compiler is allowed to, so where the host can run a v3 binary the bit
# tests run at that level too — if one ever fails there, the kernel must
# not be selected in that build.
# There is one .s file: one exact scan per element width, one int8 bound
# scan and one floor predicate, all in internal/mathx/scan_amd64.s, and
# in it one TEXT symbol each (the row-list scan is the float64 scan's
# pass reading its rows from the list, not a second body).
# Another of any is another kernel to keep bit-identical.
gate -count=1 -run '^TestScanF64F32(MatchesPortable|IsDotF64F32|ShortSlicePanics)$' ./internal/mathx
gate -count=1 -run '^Test(ScanF64(MatchesPortable|IsDot|ShortSlicePanics|Rows(IsDot|Panics))|FirstNotBelowMatchesLoop)$' ./internal/mathx
gate -count=1 -run '^TestBound(I8MatchesPortable|I8ShortSlicePanics|QueryMatchesSpec|CoversTheExactScore|TightENeverAboveLmax|NonFinite|WithBiasMatchesBuild)$' ./internal/mathx
gate -run='^$' -fuzz='^FuzzScanF64F32$' -fuzztime=5s ./internal/mathx
gate -run='^$' -fuzz='^FuzzScanF64$' -fuzztime=5s ./internal/mathx
gate -run='^$' -fuzz='^FuzzFirstNotBelow$' -fuzztime=5s ./internal/mathx
gate -run='^$' -fuzz='^FuzzBoundI8$' -fuzztime=5s ./internal/mathx
go vet ./internal/mathx
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/mathx ./internal/mf ./internal/retrieval ./internal/score
v3=yes
for flag in avx2 fma bmi2 movbe; do
	grep -qw "$flag" /proc/cpuinfo 2>/dev/null || v3=no
done
if [ "$v3" = yes ]; then
	(export GOAMD64=v3; gate -count=1 -run '^Test(ScanF64(F32)?(MatchesPortable|IsDotF64F32|IsDot)|ScanF64RowsIsDot|FirstNotBelowMatchesLoop|Bound(I8MatchesPortable|CoversTheExactScore|NonFinite))$' ./internal/mathx)
fi
if find . -name '*.s' -not -path './.bench_build/*' | grep -v '^\./internal/mathx/scan_amd64\.s$' ||
	grep -rnE --include='*.go' --exclude='*_test.go' 'func [A-Za-z]*(Scan[A-Za-z0-9]*F(32|64)|Bound[A-Za-z0-9]*(F(32|64)|I8))' . |
		grep -v -e '^\./internal/mathx/' -e '^\./\.bench_build/'; then
	echo "a second assembly file or a scan kernel outside internal/mathx: the catalog scans are mathx.ScanF64, mathx.ScanF64F32 and mathx.BoundI8, the bound scan that answers the floor test, in internal/mathx/scan_amd64.s" >&2
	exit 1
fi
texts=$(sed -nE 's/^TEXT ·([A-Za-z0-9]+)\(SB\).*/\1/p' internal/mathx/scan_amd64.s | LC_ALL=C sort | tr '\n' ' ')
if [ "$texts" != "boundI8AVX2 cpuHasAVX cpuHasAVX2 firstNotBelowAVX scanAVX scanF64AVX " ]; then
	echo "scan_amd64.s defines $texts: one body per kernel (a second float64 scan body is a second kernel to keep bit-identical)" >&2
	exit 1
fi
echo "scan kernel gate ok"

# Trace smoke: end-to-end tracing under the race detector — a request
# must land in /debug/traces with parent/child spans and populate the
# per-stage histogram. -count=1 defeats the test cache so the gate
# always actually runs.
gate -race -count=1 -run '^TestTraceSmoke' ./internal/serve
# A hedge attempt that loses its race can outlive its request and inject
# a traceparent after the pooled Trace was recycled: Inject must read
# under the trace's lock and write nothing for a stale handle. Ten runs,
# because the pool decides how soon the Trace is reused.
gate -race -count=10 -run '^TestInjectFromHedgeOutlivingRequest$' ./internal/obs/trace
# The hedge itself: the timer's goroutine and the caller, who runs the
# primary inline, share the preference walk and the result under one lock.
gate -race -count=10 -run '^TestHedgeRace$' ./internal/cluster
echo "trace smoke ok"

# Cluster chaos gate: the sharded-serving guarantee — with one of three
# shards killed mid-load, availability stays >= 99%, every below-fresh
# answer carries a degradation label, the victim's breaker opens, and
# the shard is readmitted after recovery. Run under the race detector:
# the router's hot path (hedges, breaker state, stale cache) is all
# shared-state concurrency. Beside it, by name: the hedge delay's sorted
# window answers exactly what a full sort of the window would (and stays
# clean with observers and readers racing), and a home shard answering
# 200 with garbage is retried onto a replica and charged, not relayed or
# dropped to poprank; and the connection layer under all of it (stale
# keep-alive, cancel, timeout, torn and oddly framed bodies, TLS, pool
# bounds). -count=1 defeats the test cache.
gate -race -count=1 \
	-run '^Test(ClusterChaos|LatencyTrackerMatchesNaive|LatencyTrackerConcurrent|RouterRetriesUndecodable200OntoReplica|ShardConn)' \
	./internal/cluster
echo "cluster chaos gate ok"

# Relay gate: a /recommend answer is encoded once, on the shard, and goes
# out of the router as those bytes with its labels spliced on. A few
# seconds of arbitrary bodies: whatever the scanner accepts, the splice is
# byte for byte what decode, label, re-encode gives. And the shard's cached
# body with hits, invalidations and fills (single and batch) racing for one
# user; ten runs, because the interleaving decides who fills.
gate -run='^$' -fuzz='^FuzzRelayRecommend$' -fuzztime=5s ./internal/cluster
gate -race -count=10 -run '^TestCachedBodyConcurrentHitInvalidateFill$' ./internal/serve
echo "relay gate ok"

# Feedback chaos gate: the crash-safe ingest guarantee — zero
# acknowledged-but-lost events across torn-tail and group-commit
# crashes, post-replay factors byte-identical to an uninterrupted run
# even when the crash lands between the watermarked export and the hot
# swap, and a failed promotion leaves the old generation serving. Under
# the race detector: ingest, overlay rebuilds, and promotion all share
# the consistency lock. The promotion scenarios run over both a float64
# base and a float32 mapped one; the last line is the same
# composition through cmd/clapf-serve's run(): float32 model, feedback
# log, promotion, SIGHUP, restarts. A promotion on an IVF server carries
# the index over — no build — and answers as a fresh build of the
# promoted file does (TestFeedbackChaosPromotionKeepsIndex, matched by
# the prefix). -count=1 defeats the test cache. The WAL's group commit
# and rotation under concurrent appends run three times: which goroutine
# fsyncs depends on the interleaving.
gate -race -count=1 -run '^TestFeedbackChaos' ./internal/feedback
gate -race -count=3 -run '^TestWAL(GroupCommit|Rotation)ConcurrentAppends$' ./internal/feedback
gate -race -count=1 -run '^TestRunFeedbackComposes' ./cmd/clapf-serve
echo "feedback chaos gate ok"

# WAL decoder fuzz smoke: random and mutated segment bodies against the
# frame decoder (torn tails, bit flips, length lies) plus whole-file
# recovery — decode must be a clean prefix parse, never a panic, and
# recovery must leave an appendable log or fail outright.
gate -run='^$' -fuzz='^FuzzReplay$' -fuzztime=5s ./internal/feedback
echo "feedback fuzz smoke ok"
