// Package trace records classified spans of (virtual or real) execution
// time per process and aggregates them into the detailed execution-time
// breakdowns of the paper's Figures 1 and 2: parallel computation,
// sequential computation, communication, synchronization and idle time.
//
// It is the Go equivalent of the performance instrumentation the authors
// integrated into the Sciddle middleware (Section 3): because the
// middleware is instrumented — rather than an external sampling tool — the
// client/server structure and the accounting barriers are visible to the
// recorder and every second of wall-clock time can be attributed.
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// Segment is one classified span of one process's timeline.
type Segment struct {
	Proc  int
	Name  string
	Kind  vm.SegKind
	Start float64
	End   float64
}

// Duration returns the span length.
func (s Segment) Duration() float64 { return s.End - s.Start }

// Flow links one client RPC call to its execution on a server: the client
// issues the request at Issue and receives the reply at Reply.  Flows let
// the Chrome exporter draw arrows from call spans to the matching server
// execution spans and let the critical-path reducer attribute client wait
// time to the server that caused it.
type Flow struct {
	ID     int
	Method string
	Client int
	Server int
	Issue  float64
	Reply  float64
}

// Recorder implements vm.Tracer and accumulates segments and flows.  It is
// safe for concurrent use: the simulated fabric records from whichever
// task goroutine holds the kernel's execution token, while readers (the
// model oracle, exporters, tests) may run on other goroutines, and the
// mutex makes every read a consistent snapshot.
//
// Storage is pointer-free.  Each segment and flow is a fixed-size record
// holding process slots, interned name indices and times, appended to
// chunks that never move: growth never copies or re-clears what was
// already written, and the garbage collector never scans it.  Segments
// and Flows build the public structs only when called.
type Recorder struct {
	mu     sync.Mutex
	segs   chunkLog[segRec]
	flows  chunkLog[flowRec]
	procs  []procEntry   // per-process table in first-seen order
	dense  []int32       // proc id -> slot+1 for ids in [0, denseProcs)
	sparse map[int]int32 // proc id -> slot for every other id
	names  interner      // segment names and flow methods
}

// segRec is the stored form of a Segment.
type segRec struct {
	start, end float64
	proc       int32 // slot in Recorder.procs
	name       int32 // index into Recorder.names
	kind       uint8
}

// flowRec is the stored form of a Flow; its ID is its position.
type flowRec struct {
	issue, reply   float64
	client, server int32 // slots in Recorder.procs
	method         int32 // index into Recorder.names
}

// procEntry is one process's row of the per-process table.
type procEntry struct {
	id      int
	segs    int    // segments recorded since the last Reset
	name    string // name of the process's last segment
	nameIdx int32  // its index into Recorder.names; -1 before the first
}

// denseProcs bounds the proc ids resolved by direct indexing; simulated
// TIDs are small, anything else goes through a map.
const denseProcs = 1 << 12

// Chunk sizes of a chunkLog: the first chunk is small so a short run
// does not pay for a large one, later chunks double up to the cap.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// chunkLog is an append-only sequence of records stored in chunks that
// never move.  Reset keeps the chunks, so refilling allocates nothing.
type chunkLog[T any] struct {
	bufs [][]T
	cur  int // index of the chunk being filled
	tail []T // the filled part of bufs[cur]
	full int // records in the chunks before cur
}

func (c *chunkLog[T]) add(v T) {
	if len(c.tail) == cap(c.tail) {
		c.grow()
	}
	c.tail = append(c.tail, v)
}

// grow moves on to the next chunk, allocating it unless a Reset kept it.
// It stays out of line so add inlines.
//
//go:noinline
func (c *chunkLog[T]) grow() {
	if c.tail != nil {
		c.full += len(c.tail)
		c.cur++
	}
	if c.cur == len(c.bufs) {
		size := firstChunk
		if c.cur > 0 {
			size = min(2*len(c.bufs[c.cur-1]), maxChunk)
		}
		c.bufs = append(c.bufs, make([]T, size))
	}
	c.tail = c.bufs[c.cur][:0]
}

// len is the number of records held.
func (c *chunkLog[T]) len() int { return c.full + len(c.tail) }

// used is the number of chunks holding records.
func (c *chunkLog[T]) used() int { return min(c.cur+1, len(c.bufs)) }

// chunk returns the records of chunk i < used(), in recording order.
func (c *chunkLog[T]) chunk(i int) []T {
	if i == c.cur {
		return c.tail
	}
	return c.bufs[i]
}

func (c *chunkLog[T]) reset() {
	c.cur, c.tail, c.full = 0, nil, 0
	if len(c.bufs) > 0 {
		c.tail = c.bufs[0][:0]
	}
}

// scanNames is how many names an interner holds before it builds a map:
// a run records a handful, and scanning them allocates nothing.
const scanNames = 8

// interner maps strings to dense indices.
type interner struct {
	strs []string
	idx  map[string]int32 // nil while len(strs) <= scanNames
}

func (in *interner) index(s string) int32 {
	if in.idx != nil {
		if i, ok := in.idx[s]; ok {
			return i
		}
	} else {
		for i, t := range in.strs {
			if t == s {
				return int32(i)
			}
		}
	}
	i := int32(len(in.strs))
	in.strs = append(in.strs, s)
	if in.idx != nil {
		in.idx[s] = i
	} else if len(in.strs) > scanNames {
		in.idx = make(map[string]int32, len(in.strs))
		for j, t := range in.strs {
			in.idx[t] = int32(j)
		}
	}
	return i
}

// NewRecorder creates an empty recorder whose tables are sized for a
// client and up to 15 servers and for 16 chunks (about 45k records) of
// each kind, so a typical run never regrows them.
func NewRecorder() *Recorder {
	return &Recorder{
		segs:  chunkLog[segRec]{bufs: make([][]segRec, 0, 16)},
		flows: chunkLog[flowRec]{bufs: make([][]flowRec, 0, 16)},
		procs: make([]procEntry, 0, 16),
		dense: make([]int32, 64),
		names: interner{strs: make([]string, 0, scanNames)},
	}
}

// find returns the slot of a process id.  Caller holds r.mu.
func (r *Recorder) find(proc int) (int32, bool) {
	if proc >= 0 && proc < denseProcs {
		if proc < len(r.dense) && r.dense[proc] != 0 {
			return r.dense[proc] - 1, true
		}
		return 0, false
	}
	s, ok := r.sparse[proc]
	return s, ok
}

// slot returns the slot of a process id, adding a row for a new one.
// Caller holds r.mu.
func (r *Recorder) slot(proc int) int32 {
	if s, ok := r.find(proc); ok {
		return s
	}
	s := int32(len(r.procs))
	r.procs = append(r.procs, procEntry{id: proc, nameIdx: -1})
	if proc >= 0 && proc < denseProcs {
		if proc >= len(r.dense) {
			r.dense = append(r.dense, make([]int32, proc+1-len(r.dense))...)
		}
		r.dense[proc] = s + 1
	} else {
		if r.sparse == nil {
			r.sparse = map[int]int32{}
		}
		r.sparse[proc] = s
	}
	return s
}

// Segment implements vm.Tracer.
func (r *Recorder) Segment(proc int, name string, kind vm.SegKind, start, end float64) {
	telemetry.RankSegment(proc, int(kind), end-start)
	r.mu.Lock()
	s := r.slot(proc)
	p := &r.procs[s]
	if p.nameIdx < 0 || name != p.name {
		p.name, p.nameIdx = name, r.names.index(name)
	}
	p.segs++
	r.segs.add(segRec{start: start, end: end, proc: s, name: p.nameIdx, kind: uint8(kind)})
	r.mu.Unlock()
}

// Segments returns a copy of all recorded segments in recording order.
// The result is always non-nil: an empty recorder yields an empty,
// non-nil slice, so callers can range, marshal and append without a nil
// check.
func (r *Recorder) Segments() []Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Segment, 0, r.segs.len())
	for c := range r.segs.used() {
		b := r.segs.chunk(c)
		for i := range b {
			s := &b[i]
			out = append(out, Segment{Proc: r.procs[s.proc].id, Name: r.names.strs[s.name], Kind: vm.SegKind(s.kind), Start: s.start, End: s.end})
		}
	}
	return out
}

// Reset discards all recorded segments and flows while retaining their
// chunks and the per-process table, so a recorder reused across
// measurement windows (e.g. via md.Options.AfterInit) reaches a steady
// state where recording allocates nothing.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.segs.reset()
	r.flows.reset()
	for i := range r.procs {
		r.procs[i].segs = 0
	}
	r.mu.Unlock()
}

// Flow records one client→server RPC flow; IDs are assigned in recording
// order.
func (r *Recorder) Flow(method string, client, server int, issue, reply float64) {
	r.mu.Lock()
	r.flows.add(flowRec{
		issue: issue, reply: reply,
		client: r.slot(client), server: r.slot(server), method: r.names.index(method),
	})
	r.mu.Unlock()
}

// Flows returns a copy of all recorded flows in recording order; like
// Segments the result is non-nil.
func (r *Recorder) Flows() []Flow {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Flow, 0, r.flows.len())
	for c := range r.flows.used() {
		b := r.flows.chunk(c)
		for i := range b {
			f := &b[i]
			out = append(out, Flow{
				ID: len(out), Method: r.names.strs[f.method],
				Client: r.procs[f.client].id, Server: r.procs[f.server].id,
				Issue: f.issue, Reply: f.reply,
			})
		}
	}
	return out
}

// Totals sums the recorded time per kind for one process.
func (r *Recorder) Totals(proc int) [vm.NumSegKinds]float64 {
	return r.TotalsBetween(proc, math.Inf(-1), math.Inf(1))
}

// TotalsBetween sums the per-kind time of one process clipped to the
// window [t0, t1] — the measurement window of a run, excluding the
// amortized initialization before t0 and the shutdown after t1.
func (r *Recorder) TotalsBetween(proc int, t0, t1 float64) [vm.NumSegKinds]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf [stackProcs][vm.NumSegKinds]float64
	return r.totalsOf(r.totalsBetween(buf[:0], t0, t1), proc)
}

// stackProcs is how many processes' totals a caller's stack buffer holds;
// larger fleets allocate.
const stackProcs = 16

// totalsBetween sums every process's per-kind time clipped to [t0, t1] in
// one pass, adding each process's spans in recording order, and returns
// the totals indexed by slot, in tot's zeroed backing array when it is
// large enough.  Caller holds r.mu.
func (r *Recorder) totalsBetween(tot [][vm.NumSegKinds]float64, t0, t1 float64) [][vm.NumSegKinds]float64 {
	if n := len(r.procs); cap(tot) >= n {
		tot = tot[:n]
	} else {
		tot = make([][vm.NumSegKinds]float64, n)
	}
	for c := range r.segs.used() {
		b := r.segs.chunk(c)
		for i := range b {
			s := &b[i]
			start, end := s.start, s.end
			if start < t0 {
				start = t0
			}
			if end > t1 {
				end = t1
			}
			if end > start {
				tot[s.proc][s.kind] += end - start
			}
		}
	}
	return tot
}

// totalsOf picks one process's row out of totalsBetween's result; an
// unknown process has zero totals.  Caller holds r.mu.
func (r *Recorder) totalsOf(tot [][vm.NumSegKinds]float64, proc int) [vm.NumSegKinds]float64 {
	if s, ok := r.find(proc); ok {
		return tot[s]
	}
	return [vm.NumSegKinds]float64{}
}

// Procs returns the sorted ids of all processes with recorded segments.
func (r *Recorder) Procs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, 0, len(r.procs))
	for _, p := range r.procs {
		if p.segs > 0 {
			ids = append(ids, p.id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Breakdown is the paper's decomposition of the wall-clock execution time,
// t_OPAL = t_par_comp + t_seq_comp + t_comm + t_sync (+ idle), measured
// rather than modelled.  All values are seconds.
type Breakdown struct {
	Wall float64
	// ParComp is the parallel computation time: the mean over the servers
	// of their computing time (the work one server contributes to the
	// critical path when perfectly balanced).
	ParComp float64
	// MaxParComp is the busiest server's computing time; the gap to
	// ParComp is load imbalance and surfaces in Idle.
	MaxParComp float64
	// MinParComp is the least-loaded server's computing time.
	MinParComp float64
	// SeqComp is the client's own computation time.
	SeqComp float64
	// Comm is the total communication time of eq. 6: the client's call
	// transfers plus the servers' return transfers (which serialize
	// through the shared channel while the client waits, so they are
	// disjoint wall-clock spans).
	Comm float64
	// Sync is the client's synchronization time (the accounting barriers).
	Sync float64
	// Recovery is the time spent absorbing injected faults across the
	// client and all servers: retransmissions, crash-recovery windows and
	// straggler delays (vm.SegRecovery).  Exactly zero in fault-free runs.
	Recovery float64
	// Idle is the remainder of the wall clock: the client waiting for
	// servers, which grows with load imbalance.
	Idle float64
	// Servers is the number of server processes aggregated.
	Servers int
}

// ComputeBreakdown aggregates a recorder into the paper's five response
// variables.  clientID identifies the client process; serverIDs the
// servers; wall is the wall-clock time of the run (e.g. kernel.MaxTime()).
func ComputeBreakdown(r *Recorder, clientID int, serverIDs []int, wall float64) Breakdown {
	return ComputeBreakdownBetween(r, clientID, serverIDs, math.Inf(-1), math.Inf(1), wall)
}

// ComputeBreakdownBetween aggregates only the window [t0, t1] of the
// recorded timelines: the simulation phase of a run, excluding start-up
// and shutdown traffic.
//
// It walks the segments once for every process; each process's totals are
// summed in recording order, so the result is bit-identical to summing
// TotalsBetween per process.
func ComputeBreakdownBetween(r *Recorder, clientID int, serverIDs []int, t0, t1, wall float64) Breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf [stackProcs][vm.NumSegKinds]float64
	tot := r.totalsBetween(buf[:0], t0, t1)
	b := Breakdown{Wall: wall, Servers: len(serverIDs)}
	ct := r.totalsOf(tot, clientID)
	b.SeqComp = ct[vm.SegCompute] + ct[vm.SegOther]
	b.Comm = ct[vm.SegComm]
	b.Sync = ct[vm.SegSync]
	b.Recovery = ct[vm.SegRecovery]
	if len(serverIDs) > 0 {
		b.MinParComp = -1
		var sum float64
		for _, id := range serverIDs {
			st := r.totalsOf(tot, id)
			c := st[vm.SegCompute] + st[vm.SegOther]
			sum += c
			if c > b.MaxParComp {
				b.MaxParComp = c
			}
			if b.MinParComp < 0 || c < b.MinParComp {
				b.MinParComp = c
			}
			// The servers' reply transfers count as communication (they
			// occupy the shared channel while the client waits).
			b.Comm += st[vm.SegComm]
			// The servers' fault-recovery time is part of the run's
			// recovery cost: the client waits it out on the critical path.
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

// Imbalance returns the relative load imbalance across servers,
// (max-mean)/mean, the quantity in which the paper's even-server anomaly
// is visible.  Zero when there are no servers or no parallel work.
func (b Breakdown) Imbalance() float64 {
	if b.ParComp <= 0 {
		return 0
	}
	return (b.MaxParComp - b.ParComp) / b.ParComp
}

// Components returns the breakdown in the paper's chart order with labels.
// The five classic components only — the order and shape of the paper's
// Figures 1-2 — so fault-free renderings are unchanged; use
// ComponentsWithRecovery for figures of faulted runs.
func (b Breakdown) Components() ([]string, []float64) {
	return []string{"par comp", "seq comp", "comm", "sync", "idle"},
		[]float64{b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle}
}

// ComponentsWithRecovery returns the six-way breakdown including the
// fault-recovery component.
func (b Breakdown) ComponentsWithRecovery() ([]string, []float64) {
	return []string{"par comp", "seq comp", "comm", "sync", "recovery", "idle"},
		[]float64{b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Recovery, b.Idle}
}

// Sum returns the accounted total (which equals Wall up to the clamping of
// negative idle).
func (b Breakdown) Sum() float64 {
	return b.ParComp + b.SeqComp + b.Comm + b.Sync + b.Recovery + b.Idle
}

func (b Breakdown) String() string {
	s := fmt.Sprintf("wall %.3fs = par %.3f + seq %.3f + comm %.3f + sync %.3f + idle %.3f (imbalance %.1f%%)",
		b.Wall, b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle, 100*b.Imbalance())
	if b.Recovery != 0 {
		s += fmt.Sprintf(" + recovery %.3f", b.Recovery)
	}
	return s
}
