package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if tr.Label() != "" || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer should read empty")
	}
	if tr.Attribution("x") != nil {
		t.Fatal("nil tracer attribution should be nil")
	}
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		sp := tr.StartIO(p, "eng", "read")
		if sp != nil {
			t.Error("nil tracer must hand out nil spans")
		}
		// Every mark on a nil span is a no-op.
		sp.ServiceStart(p.Now())
		sp.ServiceEnd(p.Now(), 0)
		sp.Complete(p.Now())
		sp.Finish(p.Now())
		tr.Emit(p, "n", "c", 0, 1)
	})
	s.Run()
}

func TestSpanFromEmptyProc(t *testing.T) {
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		if SpanFrom(p) != nil {
			t.Error("fresh proc should carry no span")
		}
		p.SetTraceCtx("not a span")
		if SpanFrom(p) != nil {
			t.Error("non-span ctx should read as nil")
		}
	})
	s.Run()
}

// TestIOSpanPhasePartition walks one span through the full mark
// sequence and checks the Fig. 5 partition: translate and media from
// the service window, complete from the CQE gap, submit as the exact
// residual — phases summing to the duration.
func TestIOSpanPhasePartition(t *testing.T) {
	tr := NewTracer("m")
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		sp := tr.StartIO(p, "eng", "read")
		p.Sleep(100) // software submit cost
		sp.ServiceStart(p.Now())
		p.Sleep(300)                // device service window
		sp.ServiceEnd(p.Now(), 120) // 120ns exposed translation
		p.Sleep(50)                 // completion observation gap
		sp.Complete(p.Now())
		sp.Complete(p.Now() + 1000) // double-complete must not count
		p.Sleep(25)                 // post-completion software cost
		sp.Finish(p.Now())
	})
	s.Run()

	events := tr.Events()
	if len(events) != 5 { // root + 4 phase children
		t.Fatalf("events = %d, want 5: %+v", len(events), events)
	}
	root := events[0]
	if !root.IsIO || root.Dur != 475 {
		t.Fatalf("root = %+v, want IsIO dur=475", root)
	}
	want := [4]sim.Time{125, 120, 180, 50} // submit residual, translate, media, complete
	if root.Phases != want {
		t.Fatalf("phases = %v, want %v", root.Phases, want)
	}
	var sum sim.Time
	for _, ph := range root.Phases {
		sum += ph
	}
	if sum != root.Dur {
		t.Fatalf("phases sum %v != dur %v", sum, root.Dur)
	}
	// Children lay the phases out sequentially.
	at := root.Start
	for i, e := range events[1:] {
		if e.Start != at || e.Dur != want[i] || e.Name != PhaseNames[i] {
			t.Fatalf("child %d = %+v, want %s at %v dur %v", i, e, PhaseNames[i], at, want[i])
		}
		at += e.Dur
	}

	a := tr.Attribution("eng")
	if a == nil || a.Ops != 1 || a.Submit != 125 || a.Translate != 120 || a.Media != 180 || a.Complete != 50 {
		t.Fatalf("attribution = %+v", a)
	}
	if a.Total() != 475 {
		t.Fatalf("attribution total = %v", a.Total())
	}
}

func TestServiceEndClampsTranslate(t *testing.T) {
	tr := NewTracer("m")
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		sp := tr.StartIO(p, "eng", "write")
		sp.ServiceStart(p.Now())
		p.Sleep(100)
		sp.ServiceEnd(p.Now(), 500) // more than the window: clamp
		sp.Complete(p.Now())
		sp.Finish(p.Now())
	})
	s.Run()
	a := tr.Attribution("eng")
	if a.Translate != 100 || a.Media != 0 {
		t.Fatalf("clamped attribution = %+v", a)
	}
}

func TestEventCapCountsDropped(t *testing.T) {
	tr := NewTracer("m")
	tr.max = 3
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			tr.Emit(p, "e", "c", p.Now(), 1)
		}
	})
	s.Run()
	if len(tr.Events()) != 3 || tr.Dropped() != 7 {
		t.Fatalf("events=%d dropped=%d, want 3/7", len(tr.Events()), tr.Dropped())
	}
	out, err := RenderTracers([]*Tracer{tr})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"dropped_events"`) {
		t.Fatalf("render missing dropped marker:\n%s", out)
	}
}

// TestRenderOrderIndependent pins the -j determinism mechanism: the
// rendered bytes must not depend on the order machines booted in.
func TestRenderOrderIndependent(t *testing.T) {
	mk := func(label string, base sim.Time) *Tracer {
		tr := NewTracer(label)
		s := sim.New()
		s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(base)
			tr.Emit(p, "op", "c", p.Now(), 10)
		})
		s.Run()
		return tr
	}
	a, b, c := mk("alpha", 10), mk("beta", 20), mk("alpha", 30)
	x, err := RenderTracers([]*Tracer{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	y, err := RenderTracers([]*Tracer{c, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if string(x) != string(y) {
		t.Fatalf("render depends on tracer order:\n%s\nvs\n%s", x, y)
	}
}

func TestCollectorCollects(t *testing.T) {
	var off *Collector
	if off.NewTracer("x") != nil {
		t.Fatal("nil collector must hand out nil tracers")
	}
	if ev, dr := off.Events(); ev != 0 || dr != 0 {
		t.Fatal("nil collector reported events")
	}
	c := NewCollector()
	tr := c.NewTracer("mach")
	if tr == nil || tr.max != maxEvents || tr.Label() != "mach" {
		t.Fatalf("NewTracer = %+v", tr)
	}
	tr.max = 1
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		tr.Emit(p, "e", "c", 0, 1)
		tr.Emit(p, "f", "c", 1, 1)
	})
	s.Run()
	if ev, dr := c.Events(); ev != 1 || dr != 1 {
		t.Fatalf("collected = %d (%d dropped), want 1 (1)", ev, dr)
	}
	// A second collector is a separate run: it sees none of the first's
	// tracers.
	if ev, _ := NewCollector().Events(); ev != 0 {
		t.Fatalf("fresh collector has %d events", ev)
	}
	out, err := c.Render()
	if err != nil || !strings.Contains(string(out), `"name":"e"`) {
		t.Fatalf("render = %s, %v", out, err)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	got := jsonString("a\"b\\c\x01d")
	if got != "\"a\\\"b\\\\c\\u0001d\"" {
		t.Fatalf("escaped = %s", got)
	}
}

// TestSpanPoolReuseNoAliasing pins the span free list's contract:
// Finish is a span's unique release point, a double Finish on a
// recycled pointer must not corrupt the next tenant, and a recycled
// span must carry none of its previous life's phase marks.
func TestSpanPoolReuseNoAliasing(t *testing.T) {
	tr := NewTracer("pool")
	s := sim.New()
	s.Spawn("app", func(p *sim.Proc) {
		sp1 := tr.StartIO(p, "eng", "read")
		sp1.ServiceStart(p.Now())
		p.Sleep(100)
		sp1.ServiceEnd(p.Now(), 80)
		sp1.Finish(p.Now())

		// sp1 is now free; the next StartIO recycles it.
		sp2 := tr.StartIO(p, "eng", "write")
		if sp2 != sp1 {
			t.Error("span not recycled through the free list")
		}
		// A stale Finish on the old pointer must be inert: sp1 == sp2,
		// and finishing the in-flight span twice would double-record.
		// Finish emits one root (IsIO) span plus per-phase child
		// events, so count roots only.
		roots := func() int {
			n := 0
			for _, e := range tr.Events() {
				if e.IsIO {
					n++
				}
			}
			return n
		}
		before := roots()
		p.Sleep(50)
		sp2.Finish(p.Now())
		if got := roots(); got != before+1 {
			t.Errorf("first Finish recorded %d root spans, want 1", got-before)
		}
		sp1.Finish(p.Now()) // double release via the aliased pointer
		if got := roots(); got != before+1 {
			t.Errorf("double Finish recorded an extra root span")
		}

		// The recycled span's next life starts clean: no leftover
		// phase marks from the previous tenant.
		sp3 := tr.StartIO(p, "eng", "fsync")
		start := p.Now()
		p.Sleep(10)
		sp3.Finish(p.Now())
		var last Span
		for _, e := range tr.Events() {
			if e.IsIO {
				last = e
			}
		}
		if last.Name != "fsync" || last.Start != start || last.Dur != 10 {
			t.Errorf("recycled span carried stale state: %+v", last)
		}
		for i, ph := range [4]string{"submit", "translate", "media", "complete"} {
			want := sim.Time(0)
			if i == 0 {
				want = 10 // residual: whole span is submit time
			}
			if last.Phases[i] != want {
				t.Errorf("phase %s = %v, want %v (stale mark leaked)", ph, last.Phases[i], want)
			}
		}
	})
	s.Run()
	s.Shutdown()
}
