package constraint

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddVar(t *testing.T) {
	p := NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	if a != 0 || b != 1 || p.NumVars != 2 {
		t.Fatalf("ids %d %d numvars %d", a, b, p.NumVars)
	}
	if p.NameOf(a) != "a" || p.NameOf(b) != "b" {
		t.Errorf("names %q %q", p.NameOf(a), p.NameOf(b))
	}
	if p.SpanOf(a) != 1 {
		t.Errorf("span = %d, want 1", p.SpanOf(a))
	}
}

func TestAddFunc(t *testing.T) {
	p := NewProgram()
	x := p.AddVar("x")
	f := p.AddFunc("f", 2)
	y := p.AddVar("y")
	if p.NumVars != 6 {
		t.Fatalf("numvars = %d, want 6 (x, f, f$ret, f$arg0, f$arg1, y)", p.NumVars)
	}
	if p.SpanOf(f) != 4 {
		t.Errorf("span(f) = %d, want 4", p.SpanOf(f))
	}
	if p.SpanOf(x) != 1 || p.SpanOf(y) != 1 {
		t.Error("non-function spans must be 1")
	}
	if p.NameOf(f+RetOffset) != "f$ret" {
		t.Errorf("ret name = %q", p.NameOf(f+RetOffset))
	}
	if p.NameOf(f+ParamOffset) != "f$arg0" || p.NameOf(f+ParamOffset+1) != "f$arg1" {
		t.Error("param slot names wrong")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUnnamedName(t *testing.T) {
	p := NewProgram()
	v := p.AddVar("")
	if p.NameOf(v) != "v0" {
		t.Errorf("NameOf = %q, want v0", p.NameOf(v))
	}
}

func TestCounts(t *testing.T) {
	p := NewProgram()
	a, b := p.AddVar("a"), p.AddVar("b")
	p.AddAddrOf(a, b)
	p.AddCopy(b, a)
	p.AddCopy(a, b)
	p.AddLoad(a, b, 0)
	p.AddStore(b, a, 0)
	na, nc, nl, ns := p.Counts()
	if na != 1 || nc != 2 || nl != 1 || ns != 1 {
		t.Errorf("Counts = %d %d %d %d", na, nc, nl, ns)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProgram()
	p.AddVar("a")
	p.AddCopy(0, 5) // out of range
	if err := p.Validate(); err == nil {
		t.Error("out-of-range src should fail validation")
	}
	p2 := NewProgram()
	p2.AddVar("a")
	p2.AddVar("b")
	p2.Constraints = append(p2.Constraints, Constraint{Kind: Copy, Dst: 0, Src: 1, Offset: 3})
	if err := p2.Validate(); err == nil {
		t.Error("offset on copy should fail validation")
	}
	p3 := NewProgram()
	p3.AddVar("a")
	p3.Span = []uint32{0}
	if err := p3.Validate(); err == nil {
		t.Error("span 0 should fail validation")
	}
	p4 := NewProgram()
	p4.AddVar("a")
	p4.Span = []uint32{5}
	if err := p4.Validate(); err == nil {
		t.Error("span exceeding universe should fail validation")
	}
}

func TestDedup(t *testing.T) {
	p := NewProgram()
	a, b := p.AddVar("a"), p.AddVar("b")
	p.AddCopy(a, b)
	p.AddCopy(a, b)
	p.AddCopy(a, a) // trivial
	p.AddLoad(a, b, 1)
	p.AddLoad(a, b, 1)
	p.AddLoad(a, b, 2) // distinct offset kept
	removed := p.Dedup()
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if len(p.Constraints) != 3 {
		t.Errorf("kept = %d, want 3", len(p.Constraints))
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{Kind: Load, Dst: 1, Src: 2, Offset: 3}
	if c.String() != "load 1 2 3" {
		t.Errorf("String = %q", c.String())
	}
	c2 := Constraint{Kind: Copy, Dst: 1, Src: 2}
	if c2.String() != "copy 1 2" {
		t.Errorf("String = %q", c2.String())
	}
}

// randomName is empty or one to three words joined by single spaces.
func randomName(rng *rand.Rand) string {
	words := []string{"", "a", "b$ret", "pkg.(T).M", "#x", "π"}
	name := words[rng.Intn(len(words))]
	for i := rng.Intn(3); i > 0 && name != ""; i-- {
		name += " " + words[1+rng.Intn(len(words)-1)]
	}
	return name
}

func randomProgram(rng *rand.Rand) *Program {
	p := NewProgram()
	nf := rng.Intn(3)
	for i := 0; i < nf; i++ {
		p.AddFunc(randomName(rng), rng.Intn(4))
	}
	nv := 2 + rng.Intn(20)
	for i := 0; i < nv; i++ {
		p.AddVar(randomName(rng))
	}
	n := VarID(p.NumVars)
	nc := rng.Intn(60)
	for i := 0; i < nc; i++ {
		d, s := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
		switch rng.Intn(4) {
		case 0:
			p.AddAddrOf(d, s)
		case 1:
			p.AddCopy(d, s)
		case 2:
			p.AddLoad(d, s, uint32(rng.Intn(2)))
		case 3:
			p.AddStore(d, s, uint32(rng.Intn(2)))
		}
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		if err := p.Validate(); err != nil {
			return true // generator occasionally makes offsets > max span; skip
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			return false
		}
		q, err := Read(&buf)
		return err == nil && sameProgram(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sameProgram reports whether p and q hold the same program. Write writes
// no line for a span of 1, so a span table of all ones matches none.
func sameProgram(p, q *Program) bool {
	if p.NumVars != q.NumVars || !reflect.DeepEqual(p.Names, q.Names) || !reflect.DeepEqual(p.Constraints, q.Constraints) {
		return false
	}
	for v := VarID(0); v < VarID(p.NumVars); v++ {
		if p.SpanOf(v) != q.SpanOf(v) {
			return false
		}
	}
	return true
}

func TestWriteRefusesUnreadableNames(t *testing.T) {
	for _, name := range []string{
		"a  b",     // doubled space
		" a",       // leading space
		"a ",       // trailing space
		"a\tb",     // other ASCII white space
		"a\u00a0b", // other Unicode white space
		"a\nb",     // a newline would start a second line
		"a\r",      // a carriage return would be dropped with CRLF endings
		" \t",      // white space only
	} {
		p := NewProgram()
		p.AddVar("ok")
		p.AddVar(name)
		var buf bytes.Buffer
		err := Write(&buf, p)
		if err == nil || !strings.Contains(err.Error(), "var 1") {
			t.Errorf("Write with name %q: error %v, want one naming var 1", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("Write with name %q wrote %q before failing", name, buf.String())
		}
	}
}

func TestReadableNameIsJoinOfFields(t *testing.T) {
	parts := []string{"a", "π", " ", "  ", "\t", "\n", "\r", "\u00a0", "\u2003", "\xff", "\xc2"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		name := ""
		for n := 1 + rng.Intn(5); n > 0; n-- {
			name += parts[rng.Intn(len(parts))]
		}
		if got, want := readableName(name), name == strings.Join(strings.Fields(name), " "); got != want {
			t.Fatalf("readableName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRoundTripNames(t *testing.T) {
	p := NewProgram()
	p.AddVar("alpha")
	p.AddVar("")
	p.AddVar("gamma ray") // spaces preserved
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NameOf(0) != "alpha" || q.NameOf(2) != "gamma ray" {
		t.Errorf("names: %q %q", q.NameOf(0), q.NameOf(2))
	}
	if q.NameOf(1) != "v1" {
		t.Errorf("unnamed: %q", q.NameOf(1))
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"no header":         "numvars 3\n",
		"no numvars":        header + "\naddr 0 1\n",
		"bad directive":     header + "\nnumvars 2\nfrob 1 2\n",
		"bad arity":         header + "\nnumvars 2\ncopy 1\n",
		"offset on copy":    header + "\nnumvars 2\ncopy 0 1 2\n",
		"var out of range":  header + "\nnumvars 2\ncopy 0 5\n",
		"name out of range": header + "\nnumvars 2\nname 7 x\n",
		"double numvars":    header + "\nnumvars 2\nnumvars 3\n",
		"constraint first":  header + "\ncopy 0 1\nnumvars 2\n",
		"non-numeric":       header + "\nnumvars 2\ncopy a b\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestReadIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n" + header + "\n# another\nnumvars 2\n\ncopy 0 1\n"
	p, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Constraints) != 1 || p.Constraints[0].Kind != Copy {
		t.Errorf("parsed %v", p.Constraints)
	}
}

func TestClone(t *testing.T) {
	p := NewProgram()
	p.AddFunc("f", 1)
	p.AddCopy(0, 1)
	q := p.Clone()
	q.AddCopy(1, 0)
	q.Span[0] = 9
	if len(p.Constraints) != 1 || p.Span[0] != 3 {
		t.Error("clone not independent")
	}
}

func TestSortConstraints(t *testing.T) {
	p := NewProgram()
	p.AddVar("")
	p.AddVar("")
	p.AddStore(1, 0, 0)
	p.AddAddrOf(0, 1)
	p.AddCopy(1, 0)
	p.SortConstraints()
	if p.Constraints[0].Kind != AddrOf || p.Constraints[2].Kind != Store {
		t.Errorf("order: %v", p.Constraints)
	}
}
