package constraint

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The text file format:
//
//	# comment
//	antgrass-constraints v1
//	numvars <n>
//	name <id> <string>        (optional)
//	span <id> <k>             (optional; default 1)
//	addr <dst> <src>
//	copy <dst> <src>
//	load <dst> <src> [off]
//	store <dst> <src> [off]

// header is the required first non-comment line of a constraint file.
const header = "antgrass-constraints v1"

// maxLine bounds one line of a constraint file, in bytes, its newline
// included; Read fails with bufio.ErrTooLong on a longer one.
const maxLine = 1 << 22

// Write serializes p in the text file format. It refuses a program with a
// name that Read would not return unchanged (see readableName), before
// writing anything.
func Write(w io.Writer, p *Program) error {
	for id, name := range p.Names {
		if name != "" && !readableName(name) {
			return fmt.Errorf("constraint: var %d: name %q would not read back unchanged: white space in a name must be single spaces between words", id, name)
		}
	}
	// Every line is formatted into line, then copied into bw. bw keeps its
	// first write error, and Flush returns it.
	bw := bufio.NewWriter(w)
	line := append(make([]byte, 0, 64), header+"\nnumvars "...)
	line = strconv.AppendInt(line, int64(p.NumVars), 10)
	line = append(line, '\n')
	bw.Write(line)
	for id, name := range p.Names {
		if name != "" {
			line = strconv.AppendInt(append(line[:0], "name "...), int64(id), 10)
			line = append(append(append(line, ' '), name...), '\n')
			bw.Write(line)
		}
	}
	for id, s := range p.Span {
		if s != 1 {
			line = strconv.AppendInt(append(line[:0], "span "...), int64(id), 10)
			line = append(strconv.AppendUint(append(line, ' '), uint64(s), 10), '\n')
			bw.Write(line)
		}
	}
	for _, c := range p.Constraints {
		line = append(c.appendText(line[:0]), '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// readableName reports whether Read returns name unchanged from the name
// line Write makes of it. Read splits a line at every Unicode space and
// joins a name's fields with single spaces, so name must equal
// strings.Join(strings.Fields(name), " ").
func readableName(name string) bool {
	space := true // a leading space is refused like a doubled one
	for _, r := range name {
		switch {
		case !unicode.IsSpace(r):
			space = false
		case r != ' ' || space:
			return false
		default:
			space = true
		}
	}
	return !space
}

// Read parses a constraint file.
func Read(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	p := &Program{}
	sawHeader, sawNumVars := false, false
	var fields [][]byte // the line's fields, slices of the scanner's buffer
	var join []byte     // a name of several fields, joined by single spaces
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if !sawHeader {
			if string(bytes.TrimSpace(line)) != header {
				return nil, fmt.Errorf("constraint: line %d: missing header %q", lineno, header)
			}
			sawHeader = true
			continue
		}
		op := fields[0]
		switch string(op) {
		case "numvars":
			if len(fields) != 2 || sawNumVars {
				return nil, malformed(lineno, op)
			}
			n, ok := parseID(fields[1])
			if !ok {
				return nil, malformed(lineno, op)
			}
			p.NumVars = int(n)
			sawNumVars = true
		case "name":
			if len(fields) < 3 {
				return nil, malformed(lineno, op)
			}
			id, ok := parseID(fields[1])
			if !ok || int(id) >= p.NumVars {
				return nil, malformed(lineno, op)
			}
			if len(p.Names) == 0 {
				p.Names = make([]string, p.NumVars)
			}
			name := fields[2]
			if len(fields) > 3 {
				join = append(join[:0], name...)
				for _, f := range fields[3:] {
					join = append(append(join, ' '), f...)
				}
				name = join
			}
			p.Names[id] = string(name)
		case "span":
			if len(fields) != 3 {
				return nil, malformed(lineno, op)
			}
			id, ok1 := parseID(fields[1])
			s, ok2 := parseID(fields[2])
			if !ok1 || !ok2 || int(id) >= p.NumVars {
				return nil, malformed(lineno, op)
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
				return nil, malformed(lineno, op)
			}
			dst, ok1 := parseID(fields[1])
			src, ok2 := parseID(fields[2])
			if !ok1 || !ok2 {
				return nil, malformed(lineno, op)
			}
			var off uint32
			if len(fields) == 4 {
				var ok bool
				if off, ok = parseID(fields[3]); !ok {
					return nil, malformed(lineno, op)
				}
			}
			var k Kind
			switch string(op) {
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
				return nil, malformed(lineno, op)
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

// malformed is Read's error for a directive with bad arguments.
func malformed(lineno int, op []byte) error {
	return fmt.Errorf("constraint: line %d: malformed %q directive", lineno, op)
}

// asciiSpace marks the ASCII bytes that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends to dst the fields of line that bytes.Fields
// returns: the maximal runs of runes that are not Unicode white space.
// The fields are slices of line.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1 // the current field's first byte, or -1 between fields
	for i := 0; i < len(line); {
		c, size := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseID parses b as strconv.ParseUint(string(b), 10, 32) does: one or
// more ASCII digits, at most math.MaxUint32.
func parseID(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(v), true
}
