package antgrass

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antgrass/internal/bitmap"
	"antgrass/internal/pts"
)

// Per-set header sizes of the analytic snapshot size: a set handle is two
// words, and a backing is a bitmap.Bitmap header plus its refcount and
// cached hash and identity.
const (
	handleBytes  = 16
	backingBytes = 96
)

// analyticBytes is the size of sn's solution: its representative and slot
// tables, one set slot per non-empty solution, the distinct elements of
// its bitmap sets and a header per handle and per distinct backing.
func analyticBytes(sn *Snapshot) int64 {
	n := int64(len(sn.reps))
	size := 4*n + 4*n + 16*int64(len(sn.sets))
	seen := map[*bitmap.Bitmap]bool{}
	for _, s := range sn.sets {
		b, ok := pts.AsBitmap(s)
		if !ok {
			continue
		}
		size += handleBytes
		if !seen[b] {
			seen[b] = true
			size += int64(b.Elements())*bitmap.ElemBytes + backingBytes
		}
	}
	return size
}

// liveHeapBytes collects garbage twice and returns the bytes of live heap
// objects.
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldBytes returns the live heap res holds: the live heap with res, less
// the live heap once it is dropped. The caller must not use res after the
// call.
func heldBytes(res *Result) int64 {
	with := liveHeapBytes()
	runtime.KeepAlive(res)
	return with - liveHeapBytes()
}

// checkHeld fails unless res holds at most twice its snapshot's analytic
// size.
func checkHeld(t *testing.T, tag string, res *Result) {
	t.Helper()
	analytic := analyticBytes(res.Snapshot())
	held := heldBytes(res)
	t.Logf("%s: holds %d bytes, analytic size %d (%.2fx)", tag, held, analytic, float64(held)/float64(analytic))
	if held > 2*analytic {
		t.Errorf("%s: the Result holds %d bytes, more than twice its analytic size %d", tag, held, analytic)
	}
}

// TestHeldHeapOfOneShotResults holds what a Solve Result keeps after the
// solve to its solution's size, sequential and parallel: a snapshot that
// shared the solver's pooled backings would keep the pools' chunks too.
func TestHeldHeapOfOneShotResults(t *testing.T) {
	for _, name := range []string{"wine", "linux"} {
		p, err := Workload(name, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2} {
			res, err := Solve(context.Background(), p, Options{Algorithm: LCD, HCD: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkHeld(t, fmt.Sprintf("%s/w%d", name, workers), res)
		}
		runtime.KeepAlive(p)
	}
}

// TestHeldHeapOfNonResumableSession holds the Result a parallel Session
// publishes after several replays to the same bound, once the session is
// gone: every replay publishes a frozen snapshot.
func TestHeldHeapOfNonResumableSession(t *testing.T) {
	p, err := Workload("linux", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(context.Background(), p, Options{Algorithm: LCD, HCD: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Constraints[len(p.Constraints)/2]
	for i := 0; i < 3; i++ {
		d := Delta{Remove: []Constraint{c}}
		if i%2 == 1 {
			d = Delta{Add: []Constraint{c}}
		}
		if _, err := sess.Update(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if _, replayed := sess.UpdateStats(); replayed != 3 {
		t.Fatalf("replayed %d updates, want 3", replayed)
	}
	res := sess.Result()
	sess.Close()
	checkHeld(t, "linux/w2 session", res)
	runtime.KeepAlive(p)
}

// TestFrozenResultQueryStorm has 32 readers query one frozen Solve Result
// concurrently and compares every answer with the solver's own sets, read
// before the storm. Run under -race it checks that the frozen copies are
// read only through cache-free kernels.
func TestFrozenResultQueryStorm(t *testing.T) {
	p, err := Workload("emacs", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		o := Options{Algorithm: LCD, HCD: true, Workers: workers}
		inner, _, err := solveOnce(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]VarID, p.NumVars)
		for v := range want {
			want[v] = inner.PointsToSlice(VarID(v))
		}
		res, err := Solve(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		const readers = 32
		var queries atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(300 * time.Millisecond)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					v, w := VarID(rng.Intn(p.NumVars)), VarID(rng.Intn(p.NumVars))
					got := res.PointsTo(v)
					if exp := want[v]; !reflect.DeepEqual(got, exp) {
						t.Errorf("w%d: pts(v%d) = %v, want %v", workers, v, got, exp)
						return
					}
					if res.PointsToLen(v) != len(got) {
						t.Errorf("w%d: PointsToLen(v%d) disagrees with PointsTo", workers, v)
						return
					}
					for _, loc := range got {
						if !res.Contains(v, loc) {
							t.Errorf("w%d: Contains(v%d, %d) denies a listed member", workers, v, loc)
							return
						}
					}
					if res.Alias(v, w) != intersects(want[v], want[w]) {
						t.Errorf("w%d: Alias(v%d, v%d) differs from the solver's", workers, v, w)
						return
					}
					queries.Add(1)
				}
			}(int64(r)*17 + int64(workers))
		}
		wg.Wait()
		if queries.Load() == 0 {
			t.Fatalf("w%d: no queries completed", workers)
		}
	}
}

// intersects reports whether two ascending slices share an element.
func intersects(a, b []VarID) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}
