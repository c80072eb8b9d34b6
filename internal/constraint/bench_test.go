package constraint_test

import (
	"bytes"
	"io"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// table2 returns the six Table 2 programs at scale 0.2, with their
// profiles' own generator seeds, and their constraint-file texts.
func table2(b *testing.B) ([]synth.Profile, []*constraint.Program, [][]byte) {
	b.Helper()
	var profiles []synth.Profile
	var progs []*constraint.Program
	var texts [][]byte
	for _, p := range synth.PaperProfiles {
		p = p.Scale(0.2)
		prog := synth.Generate(p)
		var buf bytes.Buffer
		if err := constraint.Write(&buf, prog); err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
		progs = append(progs, prog)
		texts = append(texts, buf.Bytes())
	}
	return profiles, progs, texts
}

// BenchmarkWrite measures writing each Table 2 program at scale 0.2 as
// constraint-file text, to io.Discard so that only the writer is timed.
func BenchmarkWrite(b *testing.B) {
	profiles, progs, texts := table2(b)
	for i, p := range profiles {
		b.Run(p.Name, func(b *testing.B) {
			b.SetBytes(int64(len(texts[i])))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := constraint.Write(io.Discard, progs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRead measures reading each Table 2 program at scale 0.2 from
// its constraint-file text.
func BenchmarkRead(b *testing.B) {
	profiles, _, texts := table2(b)
	for i, p := range profiles {
		b.Run(p.Name, func(b *testing.B) {
			b.SetBytes(int64(len(texts[i])))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := constraint.Read(bytes.NewReader(texts[i])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
