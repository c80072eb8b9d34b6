package hvn_test

import (
	"fmt"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/hvn"
	"antgrass/internal/ovs"
	"antgrass/internal/synth"
)

// BenchmarkReduce runs HVN, HU and OVS, each on the same input: the
// standard-library set's program (the go-stdlib workload's offline tiers)
// and the six Table 2 profiles at scale 0.2.
func BenchmarkReduce(b *testing.B) {
	type input struct {
		name string
		prog *constraint.Program
	}
	inputs := []input{{"go-stdlib", stdlibProgram(b)}}
	for _, prof := range synth.PaperProfiles {
		inputs = append(inputs, input{fmt.Sprintf("%s@0.2", prof.Name), synth.Generate(prof.Scale(0.2))})
	}
	passes := []struct {
		name string
		run  func(*constraint.Program) *hvn.Result
	}{
		{"hvn", func(p *constraint.Program) *hvn.Result { return hvn.Reduce(p, false) }},
		{"hu", func(p *constraint.Program) *hvn.Result { return hvn.Reduce(p, true) }},
		{"ovs", ovs.Reduce},
	}
	for _, in := range inputs {
		for _, pass := range passes {
			b.Run(pass.name+"/"+in.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					reduced = pass.run(in.prog)
				}
			})
		}
	}
}

// reduced keeps BenchmarkReduce's results live.
var reduced *hvn.Result
