package oracle

import (
	"math/rand"
	"testing"

	"antgrass/internal/core"
	"antgrass/internal/synth"
)

// TestMemoMatchesPlainOnSynthPrograms is the solve-level property test
// for the operation-memoization engine: random generator-driven programs
// (synth.FromBytes decodes any byte string into a valid constraint
// system) must produce the identical fixpoint with Options.Memo on and
// off — and both must match the map-backed Reference evaluator, which
// shares no set representation with either. Memoization is a cache keyed
// on canonical set ids, so any divergence here means a cache entry
// survived an invalidation it should not have. The +memo matrix cells
// cover the same property on the corpus and fuzz inputs; this test pins
// a broad deterministic sample of paired plain/memo configurations so
// plain `go test` exercises it without the fuzzing toolchain.
func TestMemoMatchesPlainOnSynthPrograms(t *testing.T) {
	cfgs := []Config{
		coreConfig(core.LCD, "bitmap", true, 0, false),
		coreConfigMemo(core.LCD, "bitmap", true, false),
		coreConfig(core.LCD, "bitmap", true, 0, true),
		coreConfigMemo(core.LCD, "bitmap", true, true),
		coreConfig(core.Naive, "bitmap", false, 0, false),
		coreConfigMemo(core.Naive, "bitmap", false, false),
		coreConfigMemo(core.LCD, "bitmap-plain", true, false),
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+rng.Intn(4*fuzzMaxConstraints))
		rng.Read(data)
		p := synth.FromBytes(data)
		if p.NumVars > fuzzMaxVars || len(p.Constraints) > fuzzMaxConstraints {
			continue
		}
		d, err := Check(p, WithConfigs(cfgs...))
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("seed %d: memo/plain divergence: %s", seed, d)
		}
	}
}

// TestFuzzSeedsMemo replays the committed fuzz seed corpus with
// operation memoization switched on, differentially against the
// reference solver. Every seed that ever broke a solver now also pins
// the memo table: the union/diff/offset-deref caches of the sequential
// Naive and LCD solvers, difference propagation, the plain-factory
// fallback and the HVN+HU ladder.
func TestFuzzSeedsMemo(t *testing.T) {
	huTier := offlineTier{name: "hvn+hu", hvn: true, hu: true}
	replayFuzzSeeds(t, []Config{
		coreConfigMemo(core.LCD, "bitmap", true, false),
		coreConfigMemo(core.LCD, "bitmap", true, true),
		coreConfigMemo(core.Naive, "bitmap", false, false),
		coreConfigMemo(core.LCD, "bitmap-plain", true, false),
		offlineConfigMemo(huTier, core.LCD, true),
	})
}
