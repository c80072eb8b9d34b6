// Package constraint defines the inclusion-constraint model of Andersen-style
// pointer analysis as used in the paper (Table 1), together with a text file
// format, a program builder, and validation.
//
// The four constraint forms are:
//
//	AddrOf  a = &b   pts(a) ∋ loc(b)
//	Copy    a = b    pts(a) ⊇ pts(b)
//	Load    a = *b   ∀v ∈ pts(b): pts(a) ⊇ pts(v)
//	Store   *a = b   ∀v ∈ pts(a): pts(v) ⊇ pts(b)
//
// Load and Store carry an optional small offset used to encode indirect
// function calls in the style of Pearce et al. [21] (§5.1 of the paper):
// "function parameters are numbered contiguously starting immediately after
// their corresponding function variable, and when resolving indirect calls
// they are accessed as offsets to that function variable". A variable's Span
// records how many consecutive ids it owns (1 for ordinary variables;
// 1 + retval + #params for function variables), and an offset dereference
// *(v+k) only applies when k < Span(v).
package constraint

import (
	"fmt"
	"sort"
	"strconv"
)

// VarID identifies a program variable (equivalently, the memory location it
// names). IDs are dense, starting at 0.
type VarID = uint32

// Kind discriminates the constraint forms of Table 1.
type Kind uint8

const (
	// AddrOf is the base constraint a ⊇ {b}.
	AddrOf Kind = iota
	// Copy is the simple constraint a ⊇ b.
	Copy
	// Load is the complex constraint a ⊇ *(b+k).
	Load
	// Store is the complex constraint *(a+k) ⊇ b.
	Store
)

// String returns the file-format keyword for k.
func (k Kind) String() string {
	switch k {
	case AddrOf:
		return "addr"
	case Copy:
		return "copy"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return "bad"
}

// Constraint is one inclusion constraint. Dst is always the left-hand side
// of Table 1 (the constrained variable; for Store, the dereferenced
// variable), Src the right-hand side.
type Constraint struct {
	Kind   Kind
	Dst    VarID
	Src    VarID
	Offset uint32 // used by Load/Store only
}

// String renders the constraint in file-format syntax.
func (c Constraint) String() string {
	var buf [40]byte // "store" and three 10-digit ids
	return string(c.appendText(buf[:0]))
}

// appendText appends the constraint in file-format syntax to b. String
// and Write both render through it, so the two cannot drift apart.
func (c Constraint) appendText(b []byte) []byte {
	b = append(b, c.Kind.String()...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(c.Dst), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(c.Src), 10)
	if (c.Kind == Load || c.Kind == Store) && c.Offset != 0 {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(c.Offset), 10)
	}
	return b
}

// Program is a complete constraint system: a variable universe plus the
// constraint list. The zero value is an empty program; use AddVar/AddFunc
// and the Add* methods to populate it.
type Program struct {
	// NumVars is the size of the variable universe; ids are 0..NumVars-1.
	NumVars int
	// Names holds an optional human-readable name per variable. Either
	// empty or of length NumVars.
	Names []string
	// Span holds, per variable, the number of consecutive ids the
	// variable owns (≥ 1). Function variables own their return-value and
	// parameter slots. Either empty (all spans are 1) or of length
	// NumVars.
	Span []uint32
	// Constraints is the constraint list.
	Constraints []Constraint
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// AddVar appends a fresh variable with an optional name and returns its id.
func (p *Program) AddVar(name string) VarID {
	id := VarID(p.NumVars)
	p.NumVars++
	if name != "" || len(p.Names) > 0 {
		for len(p.Names) < p.NumVars-1 {
			p.Names = append(p.Names, "")
		}
		p.Names = append(p.Names, name)
	}
	if len(p.Span) > 0 {
		p.Span = append(p.Span, 1)
	}
	return id
}

// AddFunc appends a function variable owning a contiguous block of
// 2+nparams ids: the function variable itself, its return-value slot
// (offset RetOffset) and its parameter slots (offset ParamOffset+i).
// It returns the function variable's id.
func (p *Program) AddFunc(name string, nparams int) VarID {
	for len(p.Span) < p.NumVars {
		p.Span = append(p.Span, 1)
	}
	f := p.AddVar(name)
	if len(p.Span) < p.NumVars {
		p.Span = append(p.Span, 1)
	}
	p.Span[f] = uint32(2 + nparams)
	p.AddVar(name + "$ret")
	for i := 0; i < nparams; i++ {
		p.AddVar(fmt.Sprintf("%s$arg%d", name, i))
	}
	return f
}

const (
	// RetOffset is the offset of a function's return-value slot from its
	// function variable.
	RetOffset = 1
	// ParamOffset is the offset of a function's first parameter slot.
	ParamOffset = 2
)

// SpanOf returns the span of v (1 when no span table is present).
func (p *Program) SpanOf(v VarID) uint32 {
	if len(p.Span) == 0 {
		return 1
	}
	return p.Span[v]
}

// NameOf returns the name of v, or "v<id>" when unnamed.
func (p *Program) NameOf(v VarID) string {
	if int(v) < len(p.Names) && p.Names[v] != "" {
		return p.Names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// AddAddrOf appends pts(dst) ∋ src.
func (p *Program) AddAddrOf(dst, src VarID) {
	p.Constraints = append(p.Constraints, Constraint{Kind: AddrOf, Dst: dst, Src: src})
}

// AddCopy appends dst ⊇ src.
func (p *Program) AddCopy(dst, src VarID) {
	p.Constraints = append(p.Constraints, Constraint{Kind: Copy, Dst: dst, Src: src})
}

// AddLoad appends dst ⊇ *(src+offset).
func (p *Program) AddLoad(dst, src VarID, offset uint32) {
	p.Constraints = append(p.Constraints, Constraint{Kind: Load, Dst: dst, Src: src, Offset: offset})
}

// AddStore appends *(dst+offset) ⊇ src.
func (p *Program) AddStore(dst, src VarID, offset uint32) {
	p.Constraints = append(p.Constraints, Constraint{Kind: Store, Dst: dst, Src: src, Offset: offset})
}

// Counts returns the number of constraints of each kind, the breakdown
// reported in Table 2.
func (p *Program) Counts() (addr, copy_, load, store int) {
	for _, c := range p.Constraints {
		switch c.Kind {
		case AddrOf:
			addr++
		case Copy:
			copy_++
		case Load:
			load++
		case Store:
			store++
		}
	}
	return
}

// Validate checks internal consistency: ids in range, spans well-formed,
// offsets within any possible span.
func (p *Program) Validate() error {
	n := VarID(p.NumVars)
	if len(p.Names) != 0 && len(p.Names) != p.NumVars {
		return fmt.Errorf("constraint: Names has %d entries for %d vars", len(p.Names), p.NumVars)
	}
	if len(p.Span) != 0 && len(p.Span) != p.NumVars {
		return fmt.Errorf("constraint: Span has %d entries for %d vars", len(p.Span), p.NumVars)
	}
	maxSpan := uint32(1)
	for v, s := range p.Span {
		if s < 1 {
			return fmt.Errorf("constraint: var %d has span %d < 1", v, s)
		}
		if uint32(v)+s > n {
			return fmt.Errorf("constraint: var %d span %d exceeds universe %d", v, s, n)
		}
		if s > maxSpan {
			maxSpan = s
		}
	}
	for i, c := range p.Constraints {
		if c.Dst >= n || c.Src >= n {
			return fmt.Errorf("constraint %d (%s): var out of range (numvars %d)", i, c, n)
		}
		switch c.Kind {
		case AddrOf, Copy:
			if c.Offset != 0 {
				return fmt.Errorf("constraint %d (%s): offset on %s", i, c, c.Kind)
			}
		case Load, Store:
			if c.Offset >= maxSpan {
				return fmt.Errorf("constraint %d (%s): offset %d exceeds max span %d", i, c, c.Offset, maxSpan)
			}
		default:
			return fmt.Errorf("constraint %d: bad kind %d", i, c.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy of p.
func (p *Program) Clone() *Program {
	q := &Program{NumVars: p.NumVars}
	q.Names = append([]string(nil), p.Names...)
	q.Span = append([]uint32(nil), p.Span...)
	q.Constraints = append([]Constraint(nil), p.Constraints...)
	return q
}

// Dedup removes duplicate constraints and trivial self-copies (a ⊇ a)
// in place, preserving first-occurrence order. It returns the number of
// constraints removed.
func (p *Program) Dedup() int {
	seen := make(map[Constraint]struct{}, len(p.Constraints))
	out := p.Constraints[:0]
	removed := 0
	for _, c := range p.Constraints {
		if c.Kind == Copy && c.Dst == c.Src {
			removed++
			continue
		}
		if _, dup := seen[c]; dup {
			removed++
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	p.Constraints = out
	return removed
}

// SortConstraints orders the constraint list canonically (kind, dst, src,
// offset); useful for deterministic output and golden tests.
func (p *Program) SortConstraints() {
	sort.Slice(p.Constraints, func(i, j int) bool {
		a, b := p.Constraints[i], p.Constraints[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Offset < b.Offset
	})
}
