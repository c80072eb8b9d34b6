package constraint

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceRead, referenceWrite and referenceString are the fmt- and
// strings-based reader and writer that Read, Write and Constraint.String
// replaced, kept verbatim (apart from their names) as the oracle that
// FuzzReadMatchesReference holds the byte-level code to.

func referenceString(c Constraint) string {
	if (c.Kind == Load || c.Kind == Store) && c.Offset != 0 {
		return fmt.Sprintf("%s %d %d %d", c.Kind, c.Dst, c.Src, c.Offset)
	}
	return fmt.Sprintf("%s %d %d", c.Kind, c.Dst, c.Src)
}

func referenceWrite(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	fmt.Fprintf(bw, "numvars %d\n", p.NumVars)
	for id, name := range p.Names {
		if name != "" {
			fmt.Fprintf(bw, "name %d %s\n", id, name)
		}
	}
	for id, s := range p.Span {
		if s != 1 {
			fmt.Fprintf(bw, "span %d %d\n", id, s)
		}
	}
	for _, c := range p.Constraints {
		fmt.Fprintln(bw, referenceString(c))
	}
	return bw.Flush()
}

func referenceRead(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	p := &Program{}
	sawHeader, sawNumVars := false, false
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != header {
				return nil, fmt.Errorf("constraint: line %d: missing header %q", lineno, header)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		argErr := func() error {
			return fmt.Errorf("constraint: line %d: malformed %q directive", lineno, op)
		}
		num := func(s string) (uint32, error) {
			v, err := strconv.ParseUint(s, 10, 32)
			return uint32(v), err
		}
		switch op {
		case "numvars":
			if len(fields) != 2 || sawNumVars {
				return nil, argErr()
			}
			n, err := num(fields[1])
			if err != nil {
				return nil, argErr()
			}
			p.NumVars = int(n)
			sawNumVars = true
		case "name":
			if len(fields) < 3 {
				return nil, argErr()
			}
			id, err := num(fields[1])
			if err != nil || int(id) >= p.NumVars {
				return nil, argErr()
			}
			if len(p.Names) == 0 {
				p.Names = make([]string, p.NumVars)
			}
			p.Names[id] = strings.Join(fields[2:], " ")
		case "span":
			if len(fields) != 3 {
				return nil, argErr()
			}
			id, err1 := num(fields[1])
			s, err2 := num(fields[2])
			if err1 != nil || err2 != nil || int(id) >= p.NumVars {
				return nil, argErr()
			}
			if len(p.Span) == 0 {
				p.Span = make([]uint32, p.NumVars)
				for i := range p.Span {
					p.Span[i] = 1
				}
			}
			p.Span[id] = s
		case "addr", "copy", "load", "store":
			if !sawNumVars {
				return nil, fmt.Errorf("constraint: line %d: %s before numvars", lineno, op)
			}
			if len(fields) < 3 || len(fields) > 4 {
				return nil, argErr()
			}
			dst, err1 := num(fields[1])
			src, err2 := num(fields[2])
			if err1 != nil || err2 != nil {
				return nil, argErr()
			}
			var off uint32
			if len(fields) == 4 {
				var err error
				off, err = num(fields[3])
				if err != nil {
					return nil, argErr()
				}
			}
			var k Kind
			switch op {
			case "addr":
				k = AddrOf
			case "copy":
				k = Copy
			case "load":
				k = Load
			case "store":
				k = Store
			}
			if off != 0 && (k == AddrOf || k == Copy) {
				return nil, argErr()
			}
			p.Constraints = append(p.Constraints, Constraint{Kind: k, Dst: dst, Src: src, Offset: off})
		default:
			return nil, fmt.Errorf("constraint: line %d: unknown directive %q", lineno, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("constraint: empty input (missing header)")
	}
	if !sawNumVars {
		return nil, fmt.Errorf("constraint: missing numvars directive")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
