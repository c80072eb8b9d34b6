package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50},  // overlaps span 1
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 4, Parent: 2, StartNS: 25, EndNS: 45},  // a grandchild of span 0
	}
	self := selfTimes(spans)
	// Span 0's children cover [10,50) and [90,100).
	want := []time.Duration{50, 20, 10, 30, 20}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d = %v, want %v", i, self[i], w)
		}
	}
}

func TestTracerNestsSpansAndTagsOps(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	outer := tr.begin("op", true)
	inner := tr.begin("Solve", false)
	buf := make([]byte, 1<<20)
	buf[0] = 1
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Fatalf("spans = %+v, want op with one Solve child", tr.spans)
	}
	if tr.spans[inner].Op != 7 || tr.spans[outer].Op != 7 {
		t.Errorf("op ids = %d, %d; want 7", tr.spans[outer].Op, tr.spans[inner].Op)
	}
	if tr.spans[outer].AllocBytes < 1<<20 {
		t.Errorf("op span saw %d bytes allocated, want at least 1 MiB", tr.spans[outer].AllocBytes)
	}
	if tr.spans[outer].StartNS > tr.spans[inner].StartNS || tr.spans[inner].EndNS > tr.spans[outer].EndNS {
		t.Error("child span is not inside its parent")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.setOp(1)
	id := tr.begin("op", true)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
}
