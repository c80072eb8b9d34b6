package oracle

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/synth"
)

// fuzzSeedDir holds the committed fuzz seed corpus: inputs saved from
// past fuzzing campaigns, in the Go fuzzing corpus-file format. Replaying
// them as a plain test keeps their coverage alive in runs without a
// fuzzing toolchain — in particular under -race, where scripts/check.sh
// replays them against the parallel engine.
const fuzzSeedDir = "testdata/fuzz"

// readFuzzSeed decodes a Go fuzzing corpus file holding a single []byte
// argument.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		t.Fatalf("%s: not a go fuzz corpus file", path)
	}
	arg := strings.TrimSpace(lines[1])
	inner, ok := strings.CutPrefix(arg, "[]byte(")
	if !ok {
		t.Fatalf("%s: unsupported corpus argument %q", path, arg)
	}
	inner = strings.TrimSuffix(inner, ")")
	s, err := strconv.Unquote(inner)
	if err != nil {
		t.Fatalf("%s: decoding corpus argument: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzSeedsParallel replays the committed fuzz seed corpus against
// the parallel engine at four owners, differentially against the
// reference solver. The fuzz campaigns that produced these seeds ran the
// full matrix; this replay pins the parallel configurations specifically
// because check.sh runs it under the race detector, where the full
// matrix would be too slow. The interesting schedules are concurrent
// owner mailboxes, the Safra token ring's termination decision and the
// arbiter's full-pause cycle collapses — a missed happens-before edge in
// any of them surfaces as a detector report or a divergence.
func TestFuzzSeedsParallel(t *testing.T) {
	replayFuzzSeeds(t, []Config{
		coreConfig(core.Naive, "bitmap", false, 4, false),
		coreConfig(core.Naive, "bitmap", true, 4, false),
		coreConfig(core.LCD, "bitmap", false, 4, false),
		coreConfig(core.LCD, "bitmap", true, 4, false),
	})
}

// TestFuzzSeedsAsync replays the same corpus against the asynchronous
// owner-sharded engine in the shapes the four-owner replay does not
// reach: the shortest token ring (two owners), the longest (eight, with
// HCD's owner-side collapse requests) and the engine behind the HVN+HU
// offline ladder. check.sh runs it under the race detector next to
// TestFuzzSeedsParallel.
func TestFuzzSeedsAsync(t *testing.T) {
	huTier := offlineTier{name: "hvn+hu", hvn: true, hu: true}
	replayFuzzSeeds(t, []Config{
		coreConfig(core.LCD, "bitmap", false, 2, false),
		coreConfig(core.LCD, "bitmap", true, 8, false),
		offlineConfig(huTier, core.LCD, true, 4),
	})
}

// TestFuzzSeedsOffline replays the same corpus through the offline
// value-numbering tiers: HVN alone, HVN+HU, and the full HVN+HU+OVS
// stack, sequentially and at four workers, with and without HCD. Every
// seed that ever broke a solver now also pins the reduction passes as
// solution-preserving; check.sh runs this under the race detector next
// to the parallel replay.
func TestFuzzSeedsOffline(t *testing.T) {
	huTier := offlineTier{name: "hvn+hu", hvn: true, hu: true}
	replayFuzzSeeds(t, []Config{
		offlineConfig(offlineTier{name: "hvn", hvn: true}, core.LCD, false, 0),
		offlineConfig(huTier, core.LCD, false, 0),
		offlineConfig(huTier, core.LCD, true, 4),
		offlineConfig(offlineTier{name: "hvn+hu+ovs", hvn: true, hu: true, ovs: true}, core.LCD, true, 4),
	})
}

// replayFuzzSeeds runs every committed fuzz corpus seed through the given
// configurations, differentially against the reference solver.
func replayFuzzSeeds(t *testing.T, cfgs []Config) {
	targets := map[string]func(*testing.T, []byte) *constraint.Program{
		"FuzzSolversMatchReference": func(t *testing.T, data []byte) *constraint.Program {
			p, err := constraint.Read(strings.NewReader(string(data)))
			if err != nil {
				t.Skip("seed does not parse as a constraint file")
			}
			return p
		},
		"FuzzSolversMatchReferenceSynth": func(t *testing.T, data []byte) *constraint.Program {
			return synth.FromBytes(data)
		},
	}
	seeds := 0
	for target, decode := range targets {
		files, err := filepath.Glob(filepath.Join(fuzzSeedDir, target, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			seeds++
			t.Run(target+"/"+filepath.Base(path), func(t *testing.T) {
				p := decode(t, readFuzzSeed(t, path))
				if p.NumVars > fuzzMaxVars || len(p.Constraints) > fuzzMaxConstraints {
					t.Skip("oversized seed")
				}
				d, err := Check(p, WithConfigs(cfgs...))
				if err != nil {
					t.Fatal(err)
				}
				if d != nil {
					t.Errorf("divergence: %s", d)
				}
			})
		}
	}
	if seeds == 0 {
		t.Fatalf("no fuzz seeds under %s", fuzzSeedDir)
	}
}
