#!/bin/sh
# check.sh — the repository's CI gate, in one command:
#
#   ./scripts/check.sh [stage]
#
# With no argument every stage runs in order; CI splits the work across
# matrix jobs by naming one stage group:
#
#   static     — stages 1-3 (gofmt, vet, build)
#   test       — stages 4-5 (full test suite, corpus replay by name,
#                one pass of the offline-HCD, cycle-search,
#                snapshot-publish, constraint-file I/O, Go front-end
#                compile, MOD/REF, offline value-numbering and
#                call-graph microbenchmarks)
#   race       — stages 6-8 (race-detector passes, fuzz-seed replays,
#                antsolve -workers 4 end-to-end vs sequential, gccheckmark
#                smoke)
#   serve      — stage 9 (end-to-end daemon gate)
#   gofrontend — stage 10 (Go front end: golden/spec/e2e/differential
#                tests by name, the loader, golden and MOD/REF
#                reference tests under -race, then antgo self-analysis
#                end-to-end)
#   memo       — stage 11 (operation memoization: the memo/pts unit tests
#                and the memo property/fuzz-seed replays under -race, then
#                antsolve -memo end-to-end with the solution diffed against
#                plain solving)
#
# The stages:
#   1. a gofmt gate (fails listing any unformatted file);
#   2. go vet over every package;
#   3. the full build;
#   4. the full test suite;
#   5. an explicit replay of the differential-testing seed corpus
#      (internal/oracle/testdata/corpus/) against the full solver
#      configuration matrix — already part of stage 4, but run by name
#      so a corpus regression is called out unmistakably in CI logs —
#      then one iteration of the hcd.Analyze, scc.Searcher,
#      snapshot-publish (BenchmarkPublish), constraint-file
#      (BenchmarkRead, BenchmarkWrite), Go front-end compile
#      (BenchmarkCompile), MOD/REF (BenchmarkModRef), offline
#      value-numbering (BenchmarkReduce: HVN, HU and OVS) and call-graph
#      (BenchmarkCallGraph) microbenchmarks, so they keep building and
#      running;
#   6. a race-detector pass over the concurrency-bearing packages
#      (internal/par, internal/core, internal/worklist, internal/metrics)
#      in -short mode, so the parallel engine's owner goroutines and
#      mailboxes, the token-ring termination detector, the arbiter's
#      collapse pauses and the metrics registry are exercised under the
#      race detector on every change — plus a -race replay of the
#      committed fuzz seed corpus against the parallel configurations at
#      two, four and eight workers and against the offline HVN/HU
#      value-numbering tiers, so every seed that ever broke a solver also
#      pins the parallel engine and the reduction passes — and an
#      end-to-end antsolve run: the same workload solved sequentially and
#      with -workers 4, gating on byte-identical points-to solutions;
#   7. a GODEBUG=gccheckmark=1 smoke run of the pool, COW and freeze
#      tests: checkmark mode re-marks the heap after every GC cycle and
#      aborts on any object the concurrent mark missed, so a pooled
#      element reachable only through recycled free-list links, a shared
#      backing freed while a COW handle still references it, or a frozen
#      slab reachable only through a stale link, fails loudly here
#      instead of corrupting a long solve;
#   8. a -race pass over the Session/Snapshot query-storm and oracle
#      tests in the root package, the query storm over a frozen one-shot
#      Result at 0 and 2 workers, plus the serve handler tests — the
#      lock-free concurrent-reader path of the daemon under the race
#      detector — and the mid-solve deadline test, which holds the
#      sequential and parallel solvers to prompt cancellation even when
#      the race detector slows every pop;
#   9. an end-to-end serve stage: build antserve and antload into a
#      temporary directory, boot the daemon on a dynamically chosen
#      port (discovered via -addrfile), storm it with antload for a few
#      seconds with a concurrent update stream, and gate on a positive
#      query rate with zero 5xx responses;
#  10. the Go front-end gate: the golden/spec-coverage suite, the
#      self-analysis e2e test and the gogen differential-oracle cells by
#      name (so a front-end regression is called out unmistakably); the
#      loader tests (one program at every GOMAXPROCS, broken
#      dependencies, import cycles) and the golden tests under the race
#      detector, since the loader typechecks packages concurrently; the
#      MOD/REF reference comparison under the race detector in -short
#      mode (the reference's transitive mode on the standard library
#      takes tens of seconds even without it); then antgo built and run
#      on this repository end-to-end, failing unless it produces a
#      non-empty call graph;
#  11. the memoization gate: the internal/memo and pts interning unit
#      tests plus the memo property test and fuzz-seed replay under the
#      race detector, then an end-to-end antsolve run — the same workload
#      solved plain and with -memo, gating on byte-identical points-to
#      solutions.
#
# /bin/sh has no pipefail, so every stage below is a plain command (or
# a command substitution) — never a pipeline — and set -e stops the
# script the moment any stage exits non-zero.
set -eu
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
all | static | test | race | serve | gofrontend | memo) ;;
*)
	echo "usage: check.sh [all|static|test|race|serve|gofrontend|memo]" >&2
	exit 2
	;;
esac
want() {
	[ "$stage" = all ] || [ "$stage" = "$1" ]
}

# Read-only checkouts (some CI runners mount the workspace or the
# default cache location read-only) would otherwise fail inside the go
# tool with a confusing error. If the build cache is not writable,
# redirect it to a throwaway directory for the duration of the run.
gocache=$(go env GOCACHE)
if mkdir -p "$gocache" 2>/dev/null && touch "$gocache/.check-write" 2>/dev/null; then
	rm -f "$gocache/.check-write"
else
	tmpcache=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-gocache.XXXXXX")
	trap 'rm -rf "$tmpcache"' EXIT INT TERM
	GOCACHE=$tmpcache
	export GOCACHE
	echo "==> build cache $gocache is read-only; using GOCACHE=$GOCACHE"
fi

if want static; then
	echo "==> gofmt -l ."
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: the following files need formatting:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "==> go vet ./..."
	go vet ./...

	echo "==> go build ./..."
	go build ./...
fi

if want test; then
	echo "==> go test ./..."
	go test ./...

	echo "==> go test -run 'TestCorpus|TestHCDRegressionSeed' -count=1 ./internal/oracle ./internal/hcd ./internal/core"
	go test -run 'TestCorpus|TestHCDRegressionSeed' -count=1 ./internal/oracle ./internal/hcd ./internal/core

	echo "==> go test -run '^\$' -bench 'BenchmarkAnalyze|BenchmarkSearch|BenchmarkPublish|BenchmarkRead|BenchmarkWrite|BenchmarkCompile\$|BenchmarkModRef|BenchmarkReduce|BenchmarkCallGraph' -benchtime 1x ./internal/hcd ./internal/scc . ./internal/constraint ./internal/gogen ./internal/hvn"
	go test -run '^$' -bench 'BenchmarkAnalyze|BenchmarkSearch|BenchmarkPublish|BenchmarkRead|BenchmarkWrite|BenchmarkCompile$|BenchmarkModRef|BenchmarkReduce|BenchmarkCallGraph' -benchtime 1x ./internal/hcd ./internal/scc . ./internal/constraint ./internal/gogen ./internal/hvn
fi

if want race; then
	echo "==> go test -race -short ./internal/par ./internal/core ./internal/worklist ./internal/metrics"
	go test -race -short ./internal/par ./internal/core ./internal/worklist ./internal/metrics

	echo "==> go test -race -count=1 -run 'TestFuzzSeedsParallel|TestFuzzSeedsAsync' ./internal/oracle"
	go test -race -count=1 -run 'TestFuzzSeedsParallel|TestFuzzSeedsAsync' ./internal/oracle

	echo "==> go test -race -count=1 -run TestFuzzSeedsOffline ./internal/oracle"
	go test -race -count=1 -run TestFuzzSeedsOffline ./internal/oracle

	echo "==> antsolve -workers 4 end-to-end vs sequential"
	pardir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-parallel.XXXXXX")
	cleanup_parallel() {
		rm -rf "$pardir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_parallel EXIT INT TERM
	go build -o "$pardir/antsynth" ./cmd/antsynth
	go build -o "$pardir/antsolve" ./cmd/antsolve
	"$pardir/antsynth" -bench emacs -scale 0.1 -o "$pardir/prog.constraints"
	"$pardir/antsolve" -alg lcd -hcd -print "$pardir/prog.constraints" >"$pardir/seq.txt"
	"$pardir/antsolve" -alg lcd -hcd -workers 4 -print "$pardir/prog.constraints" >"$pardir/par.txt"
	# Compare only the solution lines ("name -> {...}"); the headers
	# carry wall-clock times that legitimately differ. grep exits 1 on an
	# empty solution, failing the stage under set -e.
	grep ' -> {' "$pardir/seq.txt" >"$pardir/seq.sol"
	grep ' -> {' "$pardir/par.txt" >"$pardir/par.sol"
	if ! cmp -s "$pardir/seq.sol" "$pardir/par.sol"; then
		echo "parallel: antsolve -workers 4 solution differs from sequential:" >&2
		diff "$pardir/seq.sol" "$pardir/par.sol" >&2 || true
		exit 1
	fi
	echo "parallel solution matches sequential ($(wc -l <"$pardir/seq.sol") non-empty sets)"
	rm -rf "$pardir"

	echo "==> GODEBUG=gccheckmark=1 go test -count=1 -run 'TestPool|TestPooled|TestCursor|TestCOW|TestRelease|TestDedup|TestFreeze|TestSlab' ./internal/bitmap ./internal/pts"
	GODEBUG=gccheckmark=1 go test -count=1 -run 'TestPool|TestPooled|TestCursor|TestCOW|TestRelease|TestDedup|TestFreeze|TestSlab' ./internal/bitmap ./internal/pts

	echo "==> go test -race -short -count=1 -run 'TestSession|TestFrozenResultQueryStorm|TestServe|TestLoad|TestSolveContextDeadlineMidSolve' . ./internal/serve"
	go test -race -short -count=1 -run 'TestSession|TestFrozenResultQueryStorm|TestServe|TestLoad|TestSolveContextDeadlineMidSolve' . ./internal/serve
fi

if want serve; then
	echo "==> serve stage: antserve + antload gate"
	servedir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-serve.XXXXXX")
	servepid=""
	cleanup_serve() {
		if [ -n "$servepid" ]; then
			kill "$servepid" 2>/dev/null || true
			wait "$servepid" 2>/dev/null || true
		fi
		rm -rf "$servedir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_serve EXIT INT TERM
	go build -o "$servedir/antserve" ./cmd/antserve
	go build -o "$servedir/antload" ./cmd/antload
	"$servedir/antserve" -workload emacs -scale 0.05 -hcd \
		-addr 127.0.0.1:0 -addrfile "$servedir/addr" >"$servedir/antserve.log" 2>&1 &
	servepid=$!
	# Wait for the listener (the addrfile appears once bound).
	i=0
	while [ ! -s "$servedir/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "antserve did not come up; log follows:" >&2
			cat "$servedir/antserve.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	"$servedir/antload" -addrfile "$servedir/addr" -duration 3s -readers 64 -updates 250ms -gate
	kill "$servepid" 2>/dev/null || true
	wait "$servepid" 2>/dev/null || true
	servepid=""
fi

if want gofrontend; then
	echo "==> go test -count=1 -run 'TestGolden|TestSpecCoverage|TestSelfAnalysis' ./internal/gogen"
	go test -count=1 -run 'TestGolden|TestSpecCoverage|TestSelfAnalysis' ./internal/gogen

	echo "==> go test -count=1 -run TestGogenPrograms ./internal/oracle"
	go test -count=1 -run TestGogenPrograms ./internal/oracle

	echo "==> go test -race -count=1 -run 'TestCompileIndependentOfSchedule|TestLoad|TestGolden' ./internal/gogen"
	go test -race -count=1 -run 'TestCompileIndependentOfSchedule|TestLoad|TestGolden' ./internal/gogen

	echo "==> go test -race -short -count=1 -run TestModRefMatchesReference ."
	go test -race -short -count=1 -run TestModRefMatchesReference .

	echo "==> antgo end-to-end self-analysis"
	godir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-gofrontend.XXXXXX")
	go build -o "$godir/antgo" ./cmd/antgo
	out=$("$godir/antgo" .)
	rm -rf "$godir"
	echo "$out"
	case "$out" in
	*"call graph: 0 edges"*)
		echo "gofrontend: self-analysis produced an empty call graph" >&2
		exit 1
		;;
	*"call graph: "*) ;;
	*)
		echo "gofrontend: antgo printed no call-graph summary" >&2
		exit 1
		;;
	esac
fi

if want memo; then
	echo "==> go test -race -count=1 ./internal/memo"
	go test -race -count=1 ./internal/memo

	echo "==> go test -race -count=1 -run 'TestInternID|TestHashOf|TestAdopt' ./internal/pts"
	go test -race -count=1 -run 'TestInternID|TestHashOf|TestAdopt' ./internal/pts

	echo "==> go test -race -count=1 -run 'TestMemoMatchesPlainOnSynthPrograms|TestFuzzSeedsMemo' ./internal/oracle"
	go test -race -count=1 -run 'TestMemoMatchesPlainOnSynthPrograms|TestFuzzSeedsMemo' ./internal/oracle

	echo "==> antsolve -memo end-to-end vs plain"
	memodir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-memo.XXXXXX")
	cleanup_memo() {
		rm -rf "$memodir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_memo EXIT INT TERM
	go build -o "$memodir/antsynth" ./cmd/antsynth
	go build -o "$memodir/antsolve" ./cmd/antsolve
	"$memodir/antsynth" -bench emacs -scale 0.1 -o "$memodir/prog.constraints"
	"$memodir/antsolve" -alg lcd -hcd -print "$memodir/prog.constraints" >"$memodir/plain.txt"
	"$memodir/antsolve" -alg lcd -hcd -memo -print "$memodir/prog.constraints" >"$memodir/memo.txt"
	# Compare only the solution lines ("name -> {...}"); the headers
	# carry wall-clock times that legitimately differ. grep exits 1 on an
	# empty solution, failing the stage under set -e.
	grep ' -> {' "$memodir/plain.txt" >"$memodir/plain.sol"
	grep ' -> {' "$memodir/memo.txt" >"$memodir/memo.sol"
	if ! cmp -s "$memodir/plain.sol" "$memodir/memo.sol"; then
		echo "memo: antsolve -memo solution differs from plain:" >&2
		diff "$memodir/plain.sol" "$memodir/memo.sol" >&2 || true
		exit 1
	fi
	echo "memo solution matches plain ($(wc -l <"$memodir/plain.sol") non-empty sets)"
fi

echo "OK"
