package workload

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Served is one traffic source's completion record: a tenant's, or one
// device's share of a frontend fleet. Records merge, so a tier's
// aggregate rows are a fold over its sources.
type Served struct {
	Start       sim.Time // first arrival
	End         sim.Time // last completion
	Completed   int64    // requests served end to end
	SLOMet      int64    // completed with sojourn <= SLO (when SLO > 0)
	Bursts      int64    // injected arrival spikes (faults.SiteTenantBurst)
	PeakBacklog int      // largest queued-but-unclaimed backlog observed

	// Sojourn is the arrival-to-completion latency of completed
	// requests. It includes time queued behind the source's own
	// backlog, which a closed-loop harness cannot see; shed requests
	// leave no sample.
	Sojourn *stats.Histogram
}

// Merge folds o into s: counts add, the window widens to cover both
// (a zero Start is unset), the peak backlog is the larger, and the
// sojourn histograms merge.
func (s *Served) Merge(o *Served) {
	if o.Start != 0 && (s.Start == 0 || o.Start < s.Start) {
		s.Start = o.Start
	}
	s.End = max(s.End, o.End)
	s.Completed += o.Completed
	s.SLOMet += o.SLOMet
	s.Bursts += o.Bursts
	s.PeakBacklog = max(s.PeakBacklog, o.PeakBacklog)
	if s.Sojourn == nil {
		s.Sojourn = stats.NewHistogram()
	}
	s.Sojourn.Merge(o.Sojourn)
}

// Throughput is completed requests/sec over the active window.
func (s *Served) Throughput() float64 { return stats.Throughput(s.Completed, s.End-s.Start) }

// SLOPct is the share of completed requests inside the SLO, in
// percent; 100 when no SLO was set or nothing completed.
func (s *Served) SLOPct(slo sim.Time) float64 {
	if slo <= 0 || s.Completed == 0 {
		return 100
	}
	return 100 * float64(s.SLOMet) / float64(s.Completed)
}

// PipeConfig places a pipe on the simulation and says how it accounts
// for completions. Nil metric series are inert, so a tier registers
// only the series it reports.
type PipeConfig struct {
	Sim     *sim.Sim
	Shard   int              // event shard every proc of the pipe runs on
	Faults  *faults.Injector // arrival spikes at faults.SiteTenantBurst
	Classes int              // round-robin fairness classes (at least 1)
	SLO     sim.Time         // per-request sojourn target; 0 = none

	Done    *metrics.Counter   // completions
	Miss    *metrics.Counter   // completions over the SLO
	Sojourn *metrics.Histogram // completion sojourns

	// Fail reports the error that aborts the pipe.
	Fail func(error)
}

// ServeFunc serves one request that arrived at instant at, on server
// proc w. It reports false when it shed the request instead of serving
// it; an error aborts the pipe.
type ServeFunc[R any] func(w *sim.Proc, at sim.Time, req R) (bool, error)

// queued is one waiting request with its arrival instant.
type queued[R any] struct {
	at  sim.Time
	req R
}

// fifo is one fairness class's queue.
type fifo[R any] struct {
	q    []queued[R]
	head int
}

// Pipe is one open-loop traffic source's generator→server hand-off: a
// generator proc offers arrivals on the virtual clock regardless of
// completions, and server procs drain the backlog round-robin across
// its fairness classes. Both traffic tiers run on it — a tenant is one
// pipe with a single FIFO class and QD servers; a frontend device is
// one pipe with 32 user-hashed classes and its share of the worker
// pool.
//
// Every proc of a pipe runs on one event shard and the pipe's state is
// touched only by those procs, so plain fields suffice at any host
// worker count.
type Pipe[R any] struct {
	cfg     PipeConfig
	res     *Served
	classes []fifo[R]
	backlog int
	rr      int // next class to scan
	genDone bool
	abort   bool
	more    *sim.Cond
}

// NewPipe builds a pipe that accounts into res, giving res an empty
// sojourn histogram.
func NewPipe[R any](cfg PipeConfig, res *Served) *Pipe[R] {
	res.Sojourn = stats.NewHistogram()
	return &Pipe[R]{
		cfg:     cfg,
		res:     res,
		classes: make([]fifo[R], max(cfg.Classes, 1)),
		more:    cfg.Sim.NewCond(),
	}
}

// Backlog is the number of queued, unclaimed requests.
func (p *Pipe[R]) Backlog() int { return p.backlog }

// Generate spawns the arrival generator, which offers n arrivals.
// Before each it sleeps gap(now); an injected faults.SiteTenantBurst
// spike lands that arrival and the next BurstArrivals-1 at one
// instant instead. arrive turns arrival i into a request and its
// fairness class, or reports it shed (ok false).
func (p *Pipe[R]) Generate(name string, n int, gap func(now sim.Time) sim.Time,
	arrive func(i int, now sim.Time) (req R, class int, ok bool)) {
	p.cfg.Sim.SpawnOn(p.cfg.Shard, name, func(g *sim.Proc) {
		burst := 0
		for i := 0; i < n && !p.abort; i++ {
			if burst > 0 {
				burst--
			} else {
				if d := gap(g.Now()); d > 0 {
					g.Sleep(d)
				}
				if p.cfg.Faults.Fire(faults.SiteTenantBurst) {
					burst = BurstArrivals - 1
					p.res.Bursts++
				}
			}
			now := g.Now()
			if p.res.Start == 0 {
				p.res.Start = now
			}
			req, class, ok := arrive(i, now)
			if !ok {
				continue
			}
			c := &p.classes[class]
			c.q = append(c.q, queued[R]{at: now, req: req})
			p.backlog++
			p.res.PeakBacklog = max(p.res.PeakBacklog, p.backlog)
			p.more.Signal()
		}
		p.genDone = true
		p.more.Broadcast()
	})
}

// Serve spawns one server. open runs first, on the server proc, and
// returns the call that serves each request; its error aborts the
// pipe. idle, if set, runs whenever the server finds the backlog
// empty. A server exits once the generator is done and the backlog
// drained, or when any proc of the pipe aborts it.
func (p *Pipe[R]) Serve(name string, open func(w *sim.Proc) (ServeFunc[R], error), idle func()) {
	p.cfg.Sim.SpawnOn(p.cfg.Shard, name, func(w *sim.Proc) {
		serve, err := open(w)
		if err != nil {
			p.stop(err)
			return
		}
		for !p.abort {
			if p.backlog == 0 {
				if idle != nil {
					idle()
				}
				if p.genDone {
					return
				}
				p.more.Wait(w)
				continue
			}
			e := p.pop()
			done, err := serve(w, e.at, e.req)
			if err != nil {
				p.stop(err)
				return
			}
			if done {
				p.complete(w.Now(), e.at)
			}
		}
	})
}

// stop reports err and aborts the pipe: the generator stops offering
// and every server exits at its next look at the backlog.
func (p *Pipe[R]) stop(err error) {
	p.cfg.Fail(err)
	p.abort = true
	p.more.Broadcast()
}

// pop takes the next request round-robin across the fairness classes.
// Callers check the backlog first.
func (p *Pipe[R]) pop() queued[R] {
	for {
		c := &p.classes[p.rr%len(p.classes)]
		p.rr++
		if c.head < len(c.q) {
			e := c.q[c.head]
			c.head++
			if c.head == len(c.q) {
				c.q, c.head = c.q[:0], 0
			}
			p.backlog--
			return e
		}
	}
}

// complete accounts one request served at now.
func (p *Pipe[R]) complete(now, at sim.Time) {
	soj := now - at
	p.res.Sojourn.Add(soj)
	p.res.Completed++
	p.cfg.Done.Inc()
	p.cfg.Sojourn.Observe(soj)
	if p.cfg.SLO > 0 {
		if soj <= p.cfg.SLO {
			p.res.SLOMet++
		} else {
			p.cfg.Miss.Inc()
		}
	}
	p.res.End = max(p.res.End, now)
}
