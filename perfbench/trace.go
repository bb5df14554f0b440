package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a wrapped boundary. Ops share an ID the load
// generator embeds in the op bytes (Op); batch-level spans carry Op 0 and an
// explicit Parent.
type span struct {
	ID, Parent uint64
	Op         uint64
	Name       string
	Start, End int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while it is on; spans are linked and written
// out after the run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span: it returns the span's ID and start stamp, or start -1
// when tracing is off (end then records nothing).
func (t *tracer) begin() (uint64, int64) {
	if !t.on.Load() {
		return 0, -1
	}
	return t.ids.Add(1), t.now()
}

// end closes a span opened by begin.
func (t *tracer) end(id uint64, name string, op, parent uint64, start int64) {
	if start < 0 {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// collected returns the recorded spans with their op-level parents linked.
func (t *tracer) collected() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	return out
}

// Span names. A root is the client-side life of one op; op-level children
// are linked to it through the shared op ID.
const (
	spClientOp    = "client.op"
	spRequest     = "replica.request"
	spBarrier     = "replica.barrier"
	spWaitCommit  = "replica.wait_commit"
	spExecute     = "kvdemo.execute"
	spApply       = "kvdemo.apply"
	spRead        = "kvdemo.read"
	spDeliver     = "stack.deliver"
	spAppend      = "storage.append"
	spSync        = "storage.sync"
	spGbcastCall  = "gbcast.call"
	spGbcastDeliv = "gbcast.deliver"
)

// link fills the Parent of op-level spans that were recorded without one:
// replica.* and gbcast.deliver hang under the op's root, kvdemo.execute under
// the op's replica.request (or the root when the request was not traced).
func link(spans []span) {
	roots := make(map[uint64]uint64)
	requests := make(map[uint64]uint64)
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		switch s.Name {
		case spClientOp, spGbcastCall:
			roots[s.Op] = s.ID
		case spRequest:
			requests[s.Op] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Op == 0 || s.Parent != 0 {
			continue
		}
		switch s.Name {
		case spRequest, spBarrier, spWaitCommit, spGbcastDeliv:
			s.Parent = roots[s.Op]
		case spExecute:
			if p, ok := requests[s.Op]; ok {
				s.Parent = p
			} else {
				s.Parent = roots[s.Op]
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// writeSpans writes spans as CSV (id,parent,op,name,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	var buf []byte
	for _, s := range spans {
		buf = buf[:0]
		buf = strconv.AppendUint(buf, s.ID, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Parent, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Op, 10)
		buf = append(buf, ',')
		buf = append(buf, s.Name...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
