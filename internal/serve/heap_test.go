package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"antgrass"
)

// The edit stream of TestServeHeapFlatInEdits: patterns of
// heapAddsPerRemove additions of heapEditSize held-back constraints each,
// then one removal of as many live constraints as the pattern added.
const (
	heapAddsPerRemove = 5
	heapEditSize      = 8
)

// heapEditPlan splits p's distinct constraints into a starting program
// and a held-back pool, and returns the starting program with the
// /v1/update bodies of n add/remove patterns.
func heapEditPlan(t *testing.T, p *antgrass.Program, n int) (*antgrass.Program, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seen := make(map[antgrass.Constraint]bool, len(p.Constraints))
	var uniq []antgrass.Constraint
	for _, c := range p.Constraints {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	nHeld := len(uniq) / 20
	pool := append([]antgrass.Constraint(nil), uniq[:nHeld]...)
	live := append([]antgrass.Constraint(nil), uniq[nHeld:]...)
	start := p.Clone()
	start.Constraints = append([]antgrass.Constraint(nil), live...)

	take := func(from *[]antgrass.Constraint, k int) []antgrass.Constraint {
		s := *from
		out := make([]antgrass.Constraint, k)
		for i := range out {
			j := rng.Intn(len(s))
			out[i] = s[j]
			s[j] = s[len(s)-1]
			s = s[:len(s)-1]
		}
		*from = s
		return out
	}
	body := func(d antgrass.Delta) []byte {
		b, err := json.Marshal(deltaToWire(d))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var bodies [][]byte
	for i := 0; i < n; i++ {
		for a := 0; a < heapAddsPerRemove; a++ {
			in := take(&pool, heapEditSize)
			live = append(live, in...)
			bodies = append(bodies, body(antgrass.Delta{Add: in}))
		}
		out := take(&live, heapAddsPerRemove*heapEditSize)
		pool = append(pool, out...)
		bodies = append(bodies, body(antgrass.Delta{Remove: out}))
	}
	return start, bodies
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldByServedSession serves every body, each followed by two queries,
// through a fresh session and server, and returns the heap those two hold
// afterwards: the live heap with them reachable, less the live heap once
// they are dropped. Everything else stays reachable across both reads.
func heldByServedSession(t *testing.T, start *antgrass.Program, bodies [][]byte) int64 {
	t.Helper()
	sess, err := antgrass.NewSession(context.Background(), start,
		antgrass.Options{Algorithm: antgrass.LCD, HCD: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, nil)
	for i, b := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("edit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		v := i % start.NumVars
		for _, q := range []string{
			fmt.Sprintf("/v1/query/pointsto?v=%d", v),
			fmt.Sprintf("/v1/query/alias?a=%d&b=%d", v, (v+1)%start.NumVars),
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", q, rec.Code)
			}
		}
	}
	held := liveHeap()
	// The session and server are unreachable from here on.
	runtime.KeepAlive(sess)
	runtime.KeepAlive(srv)
	freed := held - liveHeap()
	runtime.KeepAlive(start)
	runtime.KeepAlive(bodies)
	return freed
}

// TestServeHeapFlatInEdits checks that a resident session served over the
// /v1 handler holds the same heap after 4N edit patterns as after N: the
// daemon's memory must depend on the program, not on how many edits it
// has absorbed. Each pattern adds and then removes the same number of
// constraints, so the program's size stays level while the session
// resumes every addition and replays every removal.
func TestServeHeapFlatInEdits(t *testing.T) {
	if testing.Short() {
		// Nothing here runs concurrently, and under the race detector
		// the edit stream takes over ten seconds.
		t.Skip("measures the heap over 180 served edits")
	}
	p, err := antgrass.Workload("ghostscript", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	start, bodies := heapEditPlan(t, p, 4*n)
	short := heldByServedSession(t, start, bodies[:n*(heapAddsPerRemove+1)])
	long := heldByServedSession(t, start, bodies)
	t.Logf("held after %d patterns: %d KB; after %d: %d KB", n, short>>10, 4*n, long>>10)
	if short <= 0 {
		t.Fatalf("the session and server hold %d bytes; the measurement is broken", short)
	}
	// The slack admits under 1 KB per extra edit. The 11 KB per edit once
	// suspected of the served path would add about 1.2 MB over the 108
	// extra edits.
	if slack := short/10 + 32<<10; long > short+slack {
		t.Fatalf("held heap grew with edits: %d KB after %d patterns, %d KB after %d (slack %d KB)",
			short>>10, n, long>>10, 4*n, slack>>10)
	}
}
