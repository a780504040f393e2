// Package trace is the per-request span plane of the observability
// stack: each I/O carries an IOSpan from the submitting interface
// (UserLib VBA path, kernel BIO/AIO/io_uring/XRP, SPDK) through
// IOMMU/ATS translation and device media access to completion, all
// timestamped on the virtual clock (sim.Time, never time.Now), so a
// trace of a deterministic run is itself deterministic — byte-identical
// at any -j, like the experiment reports.
//
// The span model mirrors the paper's Fig. 5 latency decomposition.
// An IOSpan partitions its end-to-end duration into four phases:
//
//	submit    — software time before/around the device: syscall + VFS +
//	            block layer on kernel paths, UserLib overhead + copies
//	            on the direct path, retries/backoff, queueing.
//	            Computed as the residual (total − other phases), so the
//	            partition sums exactly.
//	translate — address translation the request had to wait for: the
//	            IOMMU/ATS walk on VBA requests (reads serialize it;
//	            overlapped writes only count the exposed portion).
//	media     — device service time on the channel (plus injected
//	            delays), i.e. the service window minus translate.
//	complete  — completion latency: device-posts-CQE to
//	            submitter-observes-CQE (interrupt/reap on kernel paths,
//	            busy-poll on direct paths).
//
// Machines are single-threaded under the cooperative scheduler, so a
// Tracer (one per machine) needs no locks; only the Collector that
// gathers one run's tracers for rendering takes a mutex. A run that
// traces carries a Collector in its environment (kernel.Env), and each
// machine it boots registers a tracer there. A nil *Collector hands
// out nil tracers, and a nil *Tracer (and a nil *IOSpan) is inert, so
// untraced runs execute the same code paths with nil no-ops and stay
// byte-identical to a build without tracing.
package trace

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// PhaseNames orders the Fig. 5 phases as rendered everywhere.
var PhaseNames = [4]string{"submit", "translate", "media", "complete"}

// Span is one completed event on a machine's virtual timeline.
type Span struct {
	Name  string
	Cat   string
	Tid   int
	Start sim.Time
	Dur   sim.Time
	// IsIO marks an I/O root span; Phases then holds its Fig. 5
	// breakdown in PhaseNames order (submit, translate, media,
	// complete), summing exactly to Dur.
	IsIO   bool
	Phases [4]sim.Time
}

// Attribution accumulates Fig. 5-style phase totals for one interface.
type Attribution struct {
	Ops       int64
	Submit    sim.Time
	Translate sim.Time
	Media     sim.Time
	Complete  sim.Time
}

// Total is the summed end-to-end time across all attributed ops.
func (a *Attribution) Total() sim.Time {
	return a.Submit + a.Translate + a.Media + a.Complete
}

// engineMetrics caches the metrics handles one engine's spans feed.
type engineMetrics struct {
	ops *metrics.Counter
	ns  [4]*metrics.Counter
	lat *metrics.Histogram
}

// Tracer records spans for one machine. All methods are nil-safe and
// none of them advances or charges virtual time, so attaching a tracer
// cannot perturb what it measures. A Tracer must only be used from its
// machine's cooperative procs (exactly one runs at a time): it keeps
// no locks.
type Tracer struct {
	label    string
	max      int
	events   []Span
	dropped  int64
	tids     map[uint64]int
	tidNames []string
	attr     map[string]*Attribution
	em       map[string]*engineMetrics
	reg      *metrics.Registry // where io_* series go; nil = nowhere

	// spanFree recycles finished IOSpans: Finish is each span's unique
	// release point, so StartIO can hand the object to the next op
	// without allocating. Single-goroutine like the rest of the tracer.
	spanFree []*IOSpan
}

// maxEvents bounds the spans one tracer retains. Overflow is counted
// as dropped and reported in the rendered trace.
const maxEvents = 100000

// NewTracer returns a standalone tracer (not registered with any
// collector) — used by harnesses that read attribution directly, e.g.
// the T6 experiment and fio.Spec.Trace.
func NewTracer(label string) *Tracer {
	return &Tracer{
		label: label,
		max:   maxEvents,
		tids:  make(map[uint64]int),
		attr:  make(map[string]*Attribution),
		em:    make(map[string]*engineMetrics),
	}
}

// SetMetrics points the tracer's io_* series at reg (nil: none).
// Machine.EnableTrace calls it with the machine's registry, so a
// standalone tracer feeds the run it is attached to.
func (t *Tracer) SetMetrics(reg *metrics.Registry) {
	if t != nil {
		t.reg = reg
	}
}

// Label names the tracer's machine ("process" in the rendered trace).
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Events returns the recorded spans (read-only; rendering and tests).
func (t *Tracer) Events() []Span {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped counts spans discarded after the event cap was reached.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// tid interns p into a stable per-tracer thread id (1-based, in order
// of first use — deterministic because procs run cooperatively). The
// key is the proc's logical spawn ID, not the pointer: the scheduler
// recycles Proc objects across spawns, and pointer identity would
// merge unrelated threads.
func (t *Tracer) tid(p *sim.Proc) int {
	if id, ok := t.tids[p.ID()]; ok {
		return id
	}
	id := len(t.tidNames) + 1
	t.tids[p.ID()] = id
	t.tidNames = append(t.tidNames, p.Name())
	return id
}

func (t *Tracer) add(s Span) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, s)
}

// Emit records a plain (non-I/O) span, e.g. an ext4 journal commit.
func (t *Tracer) Emit(p *sim.Proc, name, cat string, start, dur sim.Time) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Cat: cat, Tid: t.tid(p), Start: start, Dur: dur})
}

// Attribution returns the accumulated phase totals for one interface
// (nil if that interface recorded no spans).
func (t *Tracer) Attribution(engine string) *Attribution {
	if t == nil {
		return nil
	}
	return t.attr[engine]
}

func (t *Tracer) attribution(engine string) *Attribution {
	a, ok := t.attr[engine]
	if !ok {
		a = &Attribution{}
		t.attr[engine] = a
	}
	return a
}

func (t *Tracer) engineMetrics(engine string) *engineMetrics {
	em, ok := t.em[engine]
	if ok {
		return em
	}
	if t.reg != nil {
		em = &engineMetrics{
			ops: t.reg.Counter("io_ops_total", "engine", engine),
			lat: t.reg.Histogram("io_latency_ns", "engine", engine),
		}
		for i, ph := range PhaseNames {
			em.ns[i] = t.reg.Counter("io_ns_total", "engine", engine, "phase", ph)
		}
	}
	t.em[engine] = em
	return em
}

// IOSpan is the per-request context threaded from the submitting
// interface through the NVMe queue pair to the device and back. It is
// carried on nvme.SQE.Span and on sim.Proc's trace slot (SpanFrom).
// All methods are nil-safe. Timeline marks:
//
//	StartIO      submitter, before any software cost
//	ServiceStart device, when a channel starts serving the command
//	ServiceEnd   device, when service ends (translate = exposed
//	             translation ns inside that window)
//	Complete     submitter, on observing the CQE
//	Finish       submitter, after the whole op (incl. retries/chunks)
//
// A retried or multi-SQE op re-marks ServiceStart..Complete once per
// command; phases accumulate and everything in between lands in the
// residual submit phase.
type IOSpan struct {
	tr     *Tracer
	engine string
	op     string
	tid    int
	start  sim.Time

	winStart   sim.Time
	serviceEnd sim.Time // -1 when no unconsumed service window
	translate  sim.Time
	media      sim.Time
	complete   sim.Time
}

// StartIO opens an I/O root span for one application-visible op,
// recycling a finished span when one is free.
func (t *Tracer) StartIO(p *sim.Proc, engine, op string) *IOSpan {
	if t == nil {
		return nil
	}
	var sp *IOSpan
	if n := len(t.spanFree); n > 0 {
		sp = t.spanFree[n-1]
		t.spanFree[n-1] = nil
		t.spanFree = t.spanFree[:n-1]
	} else {
		sp = &IOSpan{}
	}
	*sp = IOSpan{
		tr:         t,
		engine:     engine,
		op:         op,
		tid:        t.tid(p),
		start:      p.Now(),
		serviceEnd: -1,
	}
	return sp
}

// SpanFrom returns the IOSpan carried in p's trace slot, if any.
func SpanFrom(p *sim.Proc) *IOSpan {
	if sp, ok := p.TraceCtx().(*IOSpan); ok {
		return sp
	}
	return nil
}

// ServiceStart marks a device channel beginning to serve the command.
func (sp *IOSpan) ServiceStart(now sim.Time) {
	if sp != nil {
		sp.winStart = now
	}
}

// ServiceEnd closes a device service window. translate is the portion
// of the window the request spent exposed to address translation (the
// full walk latency on reads and serialized writes, only the
// non-overlapped excess on overlapped writes); the remainder of the
// window is media time.
func (sp *IOSpan) ServiceEnd(now, translate sim.Time) {
	if sp == nil {
		return
	}
	win := now - sp.winStart
	if translate > win {
		translate = win
	}
	if translate < 0 {
		translate = 0
	}
	sp.translate += translate
	sp.media += win - translate
	sp.serviceEnd = now
}

// Complete marks the submitter observing the command's CQE; the gap
// since ServiceEnd is completion latency (interrupt wakeup or
// busy-poll granularity).
func (sp *IOSpan) Complete(now sim.Time) {
	if sp == nil || sp.serviceEnd < 0 {
		return
	}
	sp.complete += now - sp.serviceEnd
	sp.serviceEnd = -1
}

// Finish closes the root span: the residual (total minus the marked
// phases) becomes submit time, the span and its per-phase child events
// are recorded, and the engine's attribution and metrics are fed.
func (sp *IOSpan) Finish(now sim.Time) {
	if sp == nil || sp.tr == nil {
		// nil span (tracing off) or a double Finish on a recycled span:
		// releasing twice would alias two in-flight ops on one object.
		return
	}
	t := sp.tr
	dur := now - sp.start
	submit := dur - sp.translate - sp.media - sp.complete
	if submit < 0 {
		submit = 0
	}
	phases := [4]sim.Time{submit, sp.translate, sp.media, sp.complete}
	t.add(Span{
		Name:   sp.op,
		Cat:    sp.engine,
		Tid:    sp.tid,
		Start:  sp.start,
		Dur:    dur,
		IsIO:   true,
		Phases: phases,
	})
	// Child events lay the phases out sequentially under the root so
	// trace viewers show the breakdown without reading args.
	at := sp.start
	for i, ph := range phases {
		if ph <= 0 {
			continue
		}
		t.add(Span{Name: PhaseNames[i], Cat: sp.engine, Tid: sp.tid, Start: at, Dur: ph})
		at += ph
	}

	a := t.attribution(sp.engine)
	a.Ops++
	a.Submit += submit
	a.Translate += sp.translate
	a.Media += sp.media
	a.Complete += sp.complete

	if em := t.engineMetrics(sp.engine); em != nil {
		em.ops.Inc()
		em.lat.Observe(dur)
		for i, c := range em.ns {
			c.Add(int64(phases[i]))
		}
	}

	*sp = IOSpan{} // tr=nil marks the span released
	t.spanFree = append(t.spanFree, sp)
}

// --- per-run collection ----------------------------------------------

// Collector gathers the tracers of every machine one run boots, for
// rendering. Machines boot concurrently under parallel sweeps, so
// registration takes a lock. A nil *Collector is inert.
type Collector struct {
	mu  sync.Mutex
	all []*Tracer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// NewTracer returns a tracer registered with c, or nil when c is nil.
// Called once per machine at boot.
func (c *Collector) NewTracer(label string) *Tracer {
	if c == nil {
		return nil
	}
	t := NewTracer(label)
	c.mu.Lock()
	c.all = append(c.all, t)
	c.mu.Unlock()
	return t
}

// tracers returns the collected tracers in registration order.
func (c *Collector) tracers() []*Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Tracer(nil), c.all...)
}

// Render serializes every collected tracer (see RenderTracers). Must
// be called after the run completes.
func (c *Collector) Render() ([]byte, error) { return RenderTracers(c.tracers()) }

// Events sums event and dropped counts across collected tracers
// (progress reporting).
func (c *Collector) Events() (events, dropped int64) {
	for _, t := range c.tracers() {
		events += int64(len(t.events))
		dropped += t.dropped
	}
	return events, dropped
}

// --- rendering ------------------------------------------------------

// RenderTracers serializes tracers as Chrome trace-event JSON (load
// via chrome://tracing or Perfetto). Determinism at any -j: machine
// boot order varies under parallel sweeps, so each tracer renders to a
// pid-independent canonical form, tracers are sorted by (label,
// content), and pids are assigned after the sort — the bytes cannot
// depend on boot order.
func RenderTracers(trs []*Tracer) ([]byte, error) {
	sorted := append([]*Tracer(nil), trs...)
	sort.Slice(sorted, func(i, j int) bool { return cmpTracer(sorted[i], sorted[j]) < 0 })

	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString("\n")
		b.WriteString(s)
	}
	for pid, t := range sorted {
		pid := pid + 1
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, jsonString(t.label)))
		for i, name := range t.tidNames {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, i+1, jsonString(name)))
		}
		for _, s := range t.events {
			emit(renderSpan(pid, s))
		}
		if t.dropped > 0 {
			emit(fmt.Sprintf(`{"name":"dropped_events","ph":"M","pid":%d,"tid":0,"args":{"count":%d}}`,
				pid, t.dropped))
		}
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return b.Bytes(), nil
}

// renderSpan emits one "X" complete event; ts/dur are microseconds in
// the Chrome trace format, printed with fixed precision so the exact
// nanosecond survives.
func renderSpan(pid int, s Span) string {
	var args string
	if s.IsIO {
		args = fmt.Sprintf(`,"args":{"submit_ns":%d,"translate_ns":%d,"media_ns":%d,"complete_ns":%d}`,
			s.Phases[0], s.Phases[1], s.Phases[2], s.Phases[3])
	}
	return fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","pid":%d,"tid":%d,"ts":%d.%03d,"dur":%d.%03d%s}`,
		jsonString(s.Name), jsonString(s.Cat), pid, s.Tid,
		s.Start/1000, s.Start%1000, s.Dur/1000, s.Dur%1000, args)
}

// cmpTracer orders tracers by label then canonical content so the
// rendered pid assignment is independent of machine boot order. Fully
// identical tracers compare equal — their relative order is then
// irrelevant to the output bytes.
func cmpTracer(a, b *Tracer) int {
	if c := strings.Compare(a.label, b.label); c != 0 {
		return c
	}
	for i := 0; i < len(a.events) && i < len(b.events); i++ {
		if c := cmpSpan(a.events[i], b.events[i]); c != 0 {
			return c
		}
	}
	if c := len(a.events) - len(b.events); c != 0 {
		return c
	}
	for i := 0; i < len(a.tidNames) && i < len(b.tidNames); i++ {
		if c := strings.Compare(a.tidNames[i], b.tidNames[i]); c != 0 {
			return c
		}
	}
	if c := len(a.tidNames) - len(b.tidNames); c != 0 {
		return c
	}
	return int(a.dropped - b.dropped)
}

func cmpSpan(a, b Span) int {
	if a.Start != b.Start {
		return int64Cmp(int64(a.Start), int64(b.Start))
	}
	if a.Tid != b.Tid {
		return a.Tid - b.Tid
	}
	if a.Dur != b.Dur {
		return int64Cmp(int64(a.Dur), int64(b.Dur))
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := strings.Compare(a.Cat, b.Cat); c != 0 {
		return c
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return int64Cmp(int64(a.Phases[i]), int64(b.Phases[i]))
		}
	}
	if a.IsIO != b.IsIO {
		if a.IsIO {
			return 1
		}
		return -1
	}
	return 0
}

func int64Cmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// jsonString escapes s as a JSON string literal (ASCII subset of what
// encoding/json does; enough for proc/engine/op names).
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
