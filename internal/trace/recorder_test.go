package trace

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"opalperf/internal/vm"
)

// refRecorder is the naive reference the chunked Recorder must match: a
// plain slice of public structs, a filtered scan per process and the
// per-process breakdown loop.
type refRecorder struct {
	segs  []Segment
	flows []Flow
}

func (r *refRecorder) Segment(proc int, name string, kind vm.SegKind, start, end float64) {
	r.segs = append(r.segs, Segment{Proc: proc, Name: name, Kind: kind, Start: start, End: end})
}

func (r *refRecorder) Flow(method string, client, server int, issue, reply float64) {
	r.flows = append(r.flows, Flow{ID: len(r.flows), Method: method, Client: client, Server: server, Issue: issue, Reply: reply})
}

func (r *refRecorder) Reset() { r.segs, r.flows = r.segs[:0], r.flows[:0] }

func (r *refRecorder) TotalsBetween(proc int, t0, t1 float64) [vm.NumSegKinds]float64 {
	var t [vm.NumSegKinds]float64
	for _, s := range r.segs {
		if s.Proc != proc {
			continue
		}
		start, end := s.Start, s.End
		if start < t0 {
			start = t0
		}
		if end > t1 {
			end = t1
		}
		if end > start {
			t[s.Kind] += end - start
		}
	}
	return t
}

func (r *refRecorder) Procs() []int {
	seen := map[int]bool{}
	for _, s := range r.segs {
		seen[s.Proc] = true
	}
	ids := []int{}
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (r *refRecorder) Breakdown(clientID int, serverIDs []int, t0, t1, wall float64) Breakdown {
	b := Breakdown{Wall: wall, Servers: len(serverIDs)}
	ct := r.TotalsBetween(clientID, t0, t1)
	b.SeqComp = ct[vm.SegCompute] + ct[vm.SegOther]
	b.Comm = ct[vm.SegComm]
	b.Sync = ct[vm.SegSync]
	b.Recovery = ct[vm.SegRecovery]
	if len(serverIDs) > 0 {
		b.MinParComp = -1
		var sum float64
		for _, id := range serverIDs {
			st := r.TotalsBetween(id, t0, t1)
			c := st[vm.SegCompute] + st[vm.SegOther]
			sum += c
			if c > b.MaxParComp {
				b.MaxParComp = c
			}
			if b.MinParComp < 0 || c < b.MinParComp {
				b.MinParComp = c
			}
			b.Comm += st[vm.SegComm]
			b.Recovery += st[vm.SegRecovery]
		}
		b.ParComp = sum / float64(len(serverIDs))
		if b.MinParComp < 0 {
			b.MinParComp = 0
		}
	}
	b.Idle = wall - b.ParComp - b.SeqComp - b.Comm - b.Sync - b.Recovery
	if b.Idle < 0 {
		b.Idle = 0
	}
	return b
}

// Process ids: more than the totals' stack buffer holds, ids that grow the
// dense table, ids past it and a negative one.
var fuzzProcs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100, denseProcs - 1, denseProcs, 1 << 20, -3}

// Segment names and flow methods share one table; together they outgrow
// its linear scan, so the map path is covered too.
var (
	fuzzNames   = []string{"client", "server", "renamed", "n3", "n4", "n5", "n6"}
	fuzzMethods = []string{"update", "nbint", "energy"}
)

// checkEquivalent compares every read of the two recorders bit for bit,
// over an infinite and a finite window.
func checkEquivalent(t *testing.T, got *Recorder, want *refRecorder, t0, t1 float64) {
	t.Helper()
	if g, w := got.Segments(), want.segs; len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
		t.Fatalf("Segments: got %d, want %d (or contents differ)", len(g), len(w))
	}
	if g, w := got.Flows(), want.flows; len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
		t.Fatalf("Flows: got %d, want %d (or contents differ)", len(g), len(w))
	}
	procs := want.Procs()
	if g := got.Procs(); !reflect.DeepEqual(g, procs) {
		t.Fatalf("Procs = %v, want %v", g, procs)
	}
	for _, w := range [][2]float64{{math.Inf(-1), math.Inf(1)}, {t0, t1}} {
		for _, id := range append([]int{12345}, fuzzProcs...) {
			if g, wt := got.TotalsBetween(id, w[0], w[1]), want.TotalsBetween(id, w[0], w[1]); !bitsEqual(g[:], wt[:]) {
				t.Fatalf("TotalsBetween(%d, %v, %v) = %v, want %v", id, w[0], w[1], g, wt)
			}
		}
		// The oracle's shape (client = lowest id, servers = the rest) plus
		// a duplicate and an unknown server.
		client, servers := 0, []int(nil)
		if len(procs) > 0 {
			client, servers = procs[0], append(append([]int(nil), procs[1:]...), 12345)
			servers = append(servers, servers[0])
		}
		wall := w[1] - w[0]
		if math.IsInf(wall, 0) {
			wall = 100
		}
		g := ComputeBreakdownBetween(got, client, servers, w[0], w[1], wall)
		wb := want.Breakdown(client, servers, w[0], w[1], wall)
		if !bitsEqual(breakdownFloats(g), breakdownFloats(wb)) || g.Servers != wb.Servers {
			t.Fatalf("ComputeBreakdownBetween over [%v, %v] = %+v, want %+v", w[0], w[1], g, wb)
		}
	}
}

func breakdownFloats(b Breakdown) []float64 {
	return []float64{b.Wall, b.ParComp, b.MaxParComp, b.MinParComp, b.SeqComp, b.Comm, b.Sync, b.Recovery, b.Idle}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// FuzzRecorderEquivalence drives the Recorder and the naive reference
// with the same stream of segments, flows and resets decoded from the
// input, and requires every read to agree bit for bit.
func FuzzRecorderEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 10, 40, 4, 2, 0, 1, 5, 90})
	f.Add([]byte{7, 3, 1, 6, 0, 2, 1, 3, 20, 50, 7, 9})
	long := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// Non-dyadic times make the float sums order-sensitive; short or
		// negative spans and overlaps (recovery overlays) arise freely.
		span := func() (float64, float64) {
			start := float64(next()) / 7
			return start, start + float64(next()-32)/3
		}
		got, want := NewRecorder(), &refRecorder{}
		bursts := 0
		t0 := float64(next()) / 5
		t1 := t0 + float64(next())/3
		for len(data) > 0 {
			switch next() % 8 {
			case 0, 1, 2, 3:
				proc, name, kind := fuzzProcs[next()%len(fuzzProcs)], fuzzNames[next()%len(fuzzNames)], vm.SegKind(next()%vm.NumSegKinds)
				start, end := span()
				got.Segment(proc, name, kind, start, end)
				want.Segment(proc, name, kind, start, end)
			case 4, 5:
				method := fuzzMethods[next()%len(fuzzMethods)]
				client, server := fuzzProcs[next()%len(fuzzProcs)], fuzzProcs[next()%len(fuzzProcs)]
				issue, reply := span()
				got.Flow(method, client, server, issue, reply)
				want.Flow(method, client, server, issue, reply)
			case 6:
				checkEquivalent(t, got, want, t0, t1)
				got.Reset()
				want.Reset()
			case 7:
				// A burst longer than one chunk, cycling processes, names
				// and kinds; two per stream keep an execution cheap.
				if bursts++; bursts > 2 {
					continue
				}
				n, off := maxChunk+next(), next()
				for i := 0; i < n; i++ {
					proc := fuzzProcs[(i+off)%len(fuzzProcs)]
					name := fuzzNames[(i/5+off)%len(fuzzNames)]
					kind := vm.SegKind((i + off) % vm.NumSegKinds)
					start := float64(i%97) / 3
					end := start + float64(i%13)/7
					got.Segment(proc, name, kind, start, end)
					want.Segment(proc, name, kind, start, end)
					if i%9 == 0 {
						got.Flow(fuzzMethods[i%3], proc, fuzzProcs[i%4], start, end)
						want.Flow(fuzzMethods[i%3], proc, fuzzProcs[i%4], start, end)
					}
				}
			}
		}
		checkEquivalent(t, got, want, t0, t1)
	})
}

func TestProcsSparseAndAfterReset(t *testing.T) {
	r := NewRecorder()
	for _, id := range []int{1 << 20, 3, denseProcs, -3, 0, 3} {
		r.Segment(id, "p", vm.SegCompute, 0, 1)
	}
	// A flow endpoint without segments is not a recorded process.
	r.Flow("m", 0, 99, 0, 1)
	if got, want := r.Procs(), []int{-3, 0, 3, denseProcs, 1 << 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Procs = %v, want %v", got, want)
	}
	r.Reset()
	if got := r.Procs(); got == nil || len(got) != 0 {
		t.Fatalf("Procs after Reset = %#v, want empty non-nil", got)
	}
	r.Segment(1<<20, "p", vm.SegIdle, 0, 1)
	r.Segment(5, "q", vm.SegIdle, 0, 1)
	if got, want := r.Procs(), []int{5, 1 << 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Procs after refill = %v, want %v", got, want)
	}
}

// TestRecorderConcurrent pins the concurrency guarantee: run it under
// -race.  Four writers record segments and flows while a reader takes
// snapshots.
func TestRecorderConcurrent(t *testing.T) {
	const writers, n = 4, 2000
	r := NewRecorder()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.Segment(w, "w", vm.SegCompute, float64(i), float64(i+1))
				r.Flow("m", w, (w+1)%writers, float64(i), float64(i+1))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			segs := r.Segments()
			if len(segs) < last {
				t.Errorf("Segments shrank from %d to %d", last, len(segs))
				return
			}
			last = len(segs)
			r.TotalsBetween(0, 0, n)
			r.Procs()
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone
	if got := len(r.Segments()); got != writers*n {
		t.Fatalf("%d segments, want %d", got, writers*n)
	}
	flows := r.Flows()
	if len(flows) != writers*n {
		t.Fatalf("%d flows, want %d", len(flows), writers*n)
	}
	for i, f := range flows {
		if f.ID != i {
			t.Fatalf("flow %d has ID %d", i, f.ID)
		}
	}
	if got := r.Procs(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Procs = %v", got)
	}
	for w := 0; w < writers; w++ {
		if got := r.Totals(w)[vm.SegCompute]; got != n {
			t.Fatalf("proc %d compute = %v, want %d", w, got, n)
		}
	}
}

func BenchmarkRecorderSegment(b *testing.B) {
	b.ReportAllocs()
	var r *Recorder
	for i := 0; i < b.N; i++ {
		// A fresh recorder per simulated run's worth of segments, so
		// growth is part of the cost and memory stays bounded.
		if i%(1<<15) == 0 {
			r = NewRecorder()
		}
		r.Segment(i%9, "server", vm.SegCompute, float64(i), float64(i)+1)
	}
}

var breakdownSink Breakdown

// BenchmarkComputeBreakdownBetween aggregates a recording shaped like one
// simulated run: a client and eight servers, 90 segments and 8 flows per
// step over 300 steps.
func BenchmarkComputeBreakdownBetween(b *testing.B) {
	r := NewRecorder()
	names := []string{"client", "server1", "server2", "server3", "server4", "server5", "server6", "server7", "server8"}
	now := 0.0
	for step := 0; step < 300; step++ {
		for i := 0; i < 90; i++ {
			p := i % len(names)
			r.Segment(p, names[p], vm.SegKind(i%vm.NumSegKinds), now, now+1e-4)
			now += 3e-5
		}
		for s := 1; s < len(names); s++ {
			r.Flow("nbint", 0, s, now, now+2e-4)
		}
	}
	servers := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		breakdownSink = ComputeBreakdownBetween(r, 0, servers, 0.01, 0.7, 0.69)
	}
}
