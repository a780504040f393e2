// Package metrics is the per-run metrics registry of the
// observability plane: a unified Counter/Gauge/Histogram API with
// labeled series behind the ad-hoc tallies the subsystems kept before
// (userlib.Stats, device/IOMMU counters, fault-plane aggregates).
//
// A run that wants metrics carries a Registry in its environment
// (kernel.Env); each machine it boots hands the registry to its
// layers, which resolve their series handles once at boot. A nil
// *Registry resolves nil handles, and every method on a nil handle is
// a no-op — the disabled configuration stays structurally identical
// to a build without metrics: no locks, no atomics, no allocations.
//
// Series values are sums of per-machine contributions. Machines boot
// concurrently under parallel sweeps, so Counter/Gauge use atomics and
// Histogram takes a lock; all of them accumulate commutatively
// (integer adds, bucket counts), so Render output is byte-identical at
// any -j, like the experiment reports.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Counter is a monotonically increasing series. A nil *Counter — the
// handle subsystems hold when their run has no registry — is inert.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can move both ways (queue depths, live
// objects). A nil *Gauge is inert.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a latency series over the virtual clock. Observations
// land in a shared log-bucketed stats.Histogram; the running sum is
// kept in integer nanoseconds so the rendered mean does not depend on
// the order concurrent machines observed samples in (float addition is
// not associative; integer addition is). A nil *Histogram is inert.
type Histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum int64
}

// Observe records one sample.
func (h *Histogram) Observe(v sim.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(v)
	h.sum += int64(v)
	h.mu.Unlock()
}

// HistogramSummary is a histogram's rendered state.
type HistogramSummary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func (h *Histogram) summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{Count: h.h.Count()}
	if s.Count > 0 {
		s.MeanNS = h.sum / s.Count
		s.P50NS = int64(h.h.Percentile(50))
		s.P99NS = int64(h.h.Percentile(99))
		s.MaxNS = int64(h.h.Max())
	}
	return s
}

// DefaultSeriesCap bounds the number of distinct label-value
// combinations one metric name may hold. The frontend tier simulates
// millions of users; a per-user label would otherwise grow the
// registry without bound and OOM the host. The first cap distinct
// label-sets resolved for a name keep their own series; every later
// combination folds into that name's single "_overflow" bucket, so
// adds are never lost — only aggregated. In a deterministic run the
// surviving label-sets are deterministic too (series are resolved at
// machine boot or from generator procs, in simulation order), so
// Render stays byte-identical with the cap engaged.
const DefaultSeriesCap = 512

// overflowKey is the fold-target series for a name past its cap.
func overflowKey(name string) string { return name + `{label="_overflow"}` }

// Registry holds every series one run's machines resolved. A nil
// *Registry resolves nil (inert) handles.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	seriesCap int
	perName   map[string]int // distinct labeled series per metric name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		seriesCap: DefaultSeriesCap,
		perName:   make(map[string]int),
	}
}

// SetSeriesCap overrides the per-name labeled-series cap (tests, or
// deployments that know their cardinality). Series already created
// are kept; values below 1 restore the default.
func (r *Registry) SetSeriesCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 1 {
		n = DefaultSeriesCap
	}
	r.seriesCap = n
}

// resolveKey maps (name, labels) to the series key to use, folding
// new label-sets into the name's overflow bucket once the cap is
// reached. known reports whether a candidate key already has a series
// (existing series always resolve to themselves). Callers hold r.mu.
func (r *Registry) resolveKey(name string, labels []string, known func(string) bool) string {
	key := seriesKey(name, labels)
	if len(labels) == 0 || known(key) {
		return key
	}
	if r.perName[name] >= r.seriesCap {
		return overflowKey(name)
	}
	r.perName[name]++
	return key
}

// seriesKey renders "name{k1="v1",k2="v2"}" with labels sorted by key,
// from an alternating key, value list.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must alternate key, value")
	}
	pairs := make([]string, len(labels)/2)
	for i := range pairs {
		pairs[i] = labels[2*i] + `="` + labels[2*i+1] + `"`
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// Counter resolves (creating on first use) a counter series, or
// returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.resolveKey(name, labels, func(k string) bool { _, ok := r.counters[k]; return ok })
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge resolves (creating on first use) a gauge series, or
// returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.resolveKey(name, labels, func(k string) bool { _, ok := r.gauges[k]; return ok })
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram resolves (creating on first use) a histogram series, or
// returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.resolveKey(name, labels, func(k string) bool { _, ok := r.hists[k]; return ok })
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{h: stats.NewHistogram()}
		r.hists[key] = h
	}
	return h
}

// Render returns the registry as sorted plain text, one series per
// line. Deterministic for a deterministic run at any parallelism.
func (r *Registry) Render() string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k := range r.counters {
		keys = append(keys, k)
	}
	for k := range r.gauges {
		keys = append(keys, k)
	}
	for k := range r.hists {
		keys = append(keys, k)
	}
	counters, gauges, hists := r.counters, r.gauges, r.hists
	r.mu.Unlock()

	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("== metrics ==\n")
	for _, k := range keys {
		switch {
		case counters[k] != nil:
			fmt.Fprintf(&b, "%s %d\n", k, counters[k].Value())
		case gauges[k] != nil:
			fmt.Fprintf(&b, "%s %d\n", k, gauges[k].Value())
		default:
			s := hists[k].summary()
			fmt.Fprintf(&b, "%s count=%d mean=%d p50=%d p99=%d max=%d\n",
				k, s.Count, s.MeanNS, s.P50NS, s.P99NS, s.MaxNS)
		}
	}
	return b.String()
}

// Snapshot is the -json embedding of a registry.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot captures every series value for machine-readable output.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	var s Snapshot
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSummary, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.summary()
		}
	}
	return s
}
