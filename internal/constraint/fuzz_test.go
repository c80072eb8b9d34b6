package constraint

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxVars bounds the universe a fuzz input may declare. Read sizes
// Names and Span to the whole declared universe on the first name or span
// line, so a mutated numvars line would otherwise make a 50-byte input
// allocate gigabytes.
const fuzzMaxVars = 1 << 12

// declaresMoreVars reports whether a numvars line of in declares more
// than max variables. It splits lines and fields as Read does.
func declaresMoreVars(in string, max uint64) bool {
	for _, line := range strings.Split(in, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "numvars" {
			if n, err := strconv.ParseUint(f[1], 10, 32); err == nil && n > max {
				return true
			}
		}
	}
	return false
}

// fuzzSeeds start both text fuzzers: the grammar's corners, and the
// spellings the byte-level reader must treat as the reference does.
var fuzzSeeds = []string{
	"",
	header + "\nnumvars 2\ncopy 0 1\n",
	header + "\nnumvars 4\nname 0 a\nspan 0 3\naddr 0 3\nload 3 0 2\n",
	header + "\nnumvars 1\n# comment\n\nstore 0 0\n",
	"antgrass-constraints v2\nnumvars 1\n",
	header + "\nnumvars 99999999999\n",
	header + "\nnumvars 2\ncopy 0 1 9\n",
	// CRLF endings, and no final newline.
	header + "\r\nnumvars 3\r\nname 1 x y\r\nspan 0 2\r\nload 2 0 1\r\n",
	header + "\nnumvars 2\ncopy 0 1",
	"\t " + header + " \r\n numvars\t2 \nname 0 a\tb  c\n",
	// Tabs and no-break spaces inside names and between fields.
	header + "\nnumvars 3\nname 0 a\tb\nname 1 c\u00a0d\nname 2 \u00a0e \u2003f\u00a0\ncopy\u00a00 1\n",
	// Indented comments, and a # that is not a comment.
	header + "\n  # indented\n\t# tabbed\nnumvars 2\n \u00a0# no-break\ncopy 0 1 # trailing\n",
	header + "\nnumvars 2\nname 0 #a\n",
	// Other Unicode spaces, and invalid UTF-8 next to spaces.
	header + "\nnumvars 2\nname 0 a\u0085b\u3000\ncopy 0 1\n",
	header + "\nnumvars 2\nname 0 a\xc2\xa0\xc2 b\xe2\x80\nname 1 \xff\n",
	// Ids at and past 1<<32-1, leading zeros and signs.
	header + "\nnumvars 2\nload 0 1 4294967295\n",
	header + "\nnumvars 4294967296\n",
	header + "\nnumvars 2\ncopy 4294967295 0\n",
	header + "\nnumvars 2\ncopy 4294967296 0\n",
	header + "\nnumvars 0002\ncopy 00 001\nload 0 1 0000\n",
	header + "\nnumvars 2\ncopy +1 0\n",
	header + "\nnumvars 2\ncopy -0 1\n",
	header + "\nnumvars 2\ncopy 1_0 1\n",
}

// FuzzRead is a native fuzz target for the constraint-file parser: any
// input must either parse into a valid program (which must then survive a
// write/read round trip) or fail cleanly.
//
// Run with: go test -fuzz FuzzRead ./internal/constraint
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if declaresMoreVars(in, fuzzMaxVars) {
			t.Skip("oversized universe")
		}
		p, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Read returned invalid program: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("Write failed on parsed program: %v", err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !sameProgram(p, q) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v", p, q)
		}
	})
}

// FuzzReadMatchesReference holds Read and Write to the fmt- and
// strings-based reader and writer they replaced (reference_test.go): on
// every input both readers accept or both reject, with the same program
// or the same error text, and the two writers write the same bytes.
//
// Run with: go test -fuzz FuzzReadMatchesReference ./internal/constraint
func FuzzReadMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if declaresMoreVars(in, fuzzMaxVars) {
			t.Skip("oversized universe")
		}
		got, gotErr := Read(strings.NewReader(in))
		want, wantErr := referenceRead(strings.NewReader(in))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Read error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Read error %q, reference error %q", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Read made\n%+v\nreference made\n%+v", got, want)
		}
		var gotText, wantText bytes.Buffer
		if err := Write(&gotText, got); err != nil {
			t.Fatalf("Write failed on a read program: %v", err)
		}
		if err := referenceWrite(&wantText, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
			t.Fatalf("Write wrote\n%q\nreference wrote\n%q", gotText.Bytes(), wantText.Bytes())
		}
	})
}
