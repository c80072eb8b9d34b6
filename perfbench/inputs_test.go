package main

import (
	"bytes"
	"reflect"
	"testing"

	"antgrass"
)

func TestPaperInputsAreFixedBySeed(t *testing.T) {
	for _, name := range []string{"emacs", "ghostscript"} {
		a, b := paperInput(5, name), paperInput(5, name)
		if !bytes.Equal(a.text, b.text) || a.digest != b.digest {
			t.Errorf("%s: seed 5 gave two different programs", name)
		}
		if c := paperInput(6, name); bytes.Equal(a.text, c.text) {
			t.Errorf("%s: seeds 5 and 6 gave the same program", name)
		}
	}
	if a, b := paperInput(5, "wine"), paperInput(6, "wine"); a.digest != b.digest || a.digest != table2Input("wine").digest {
		t.Error("wine is pinned to its Table 2 seed, yet seeds 5 and 6 gave different programs")
	}
}

func ghostscript(t *testing.T) *antgrass.Program {
	t.Helper()
	p, err := antgrass.ReadProgram(bytes.NewReader(table2Input("ghostscript").text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSessionStreamsAreFixedBySeed(t *testing.T) {
	const edits = 4 * (addsPerRemove + 1)
	a := planSession(ghostscript(t), 3, edits)
	b := planSession(ghostscript(t), 3, edits)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 3 gave two different session plans")
	}
	for i := range a.edits {
		if !bytes.Equal(updateBody(a.edits[i]), updateBody(b.edits[i])) {
			t.Fatalf("edit %d: request bodies differ", i)
		}
	}
	// Another seed changes what is held back, the edits and the queries.
	c := planSession(ghostscript(t), 4, edits)
	if reflect.DeepEqual(a.edits, c.edits) || reflect.DeepEqual(a.queries, c.queries) ||
		reflect.DeepEqual(a.start.Constraints, c.start.Constraints) {
		t.Error("seeds 3 and 4 share an edit stream, a query stream or a held-back share")
	}
}

func TestSessionStreamKeepsPoolAndProgramDisjoint(t *testing.T) {
	prog := ghostscript(t)
	const edits = 30 * (addsPerRemove + 1)
	plan := planSession(prog, 1, edits)
	live := map[antgrass.Constraint]bool{}
	for _, c := range plan.start.Constraints {
		if live[c] {
			t.Fatalf("start program repeats %v", c)
		}
		live[c] = true
	}
	held := len(prog.Constraints) - len(live)
	adds, removes := 0, 0
	for i, e := range plan.edits {
		if e.remove != (i%(addsPerRemove+1) == addsPerRemove) {
			t.Fatalf("edit %d breaks the %d:1 pattern", i, addsPerRemove)
		}
		for _, c := range e.cons {
			if live[c] == !e.remove {
				t.Fatalf("edit %d: %v is already in the state the edit puts it in", i, c)
			}
			live[c] = !e.remove
		}
		if e.remove {
			removes++
		} else {
			adds++
			if len(e.cons) != editConstraints {
				t.Fatalf("addition %d re-adds %d constraints, want %d", i, len(e.cons), editConstraints)
			}
		}
	}
	if adds != 5*removes || held <= 0 {
		t.Errorf("%d additions, %d removals, %d held back", adds, removes, held)
	}
	if n := len(plan.queries); n != queryBlocks*queriesPerEdit {
		t.Errorf("%d queries, want %d", n, queryBlocks*queriesPerEdit)
	}
}
