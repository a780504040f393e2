package main

import (
	"fmt"
	"time"

	"repro/internal/frontend"
)

// fleet-2ssd: the service tier on the epoch engine. 2^20 users arrive
// open loop on the virtual clock (Poisson, 1.5x the pool's calibrated
// capacity) at a CoDel-admitted pool of 8 kvell workers over 2 SSDs.
// Sojourn is timed from each request's arrival instant, and a shed
// request counts as missing the 200 µs SLO.
//
// The timed rounds run the epoch engine on one host worker. On a
// shared 2-vCPU host the second vCPU sometimes runs in parallel and
// sometimes not at all, which swung 2-worker throughput by a quarter
// from run to run. The results are identical at any worker count, so
// every run also checks one round at fleetWorkers, and the traced run
// times the two against each other (sim.epoch_speedup).
const (
	fleetUsers        = 1 << 20
	fleetRequests     = 60_000
	fleetTimedWorkers = 1
	fleetWorkers      = 2
	fleetSetups       = 11
	fleetPairs        = 2 // w1/w2 round pairs timed for the epoch speedup
)

func fleetSpec(requests int) frontend.Fleet {
	return frontend.ServiceFleet(frontend.AdmitCoDel, 1.5, 2, 8, fleetUsers, requests)
}

// fleetRound runs the fleet once and returns its result, the events
// it dispatched and its host time.
func fleetRound(seed int64, requests, workers int) (*frontend.Result, uint64, time.Duration, error) {
	t0 := time.Now()
	res, events, err := frontend.RunCountedWorkers(seed, fleetSpec(requests), workers)
	return res, events, time.Since(t0), err
}

// fleetDigest folds every virtual-clock result of a fleet run.
func fleetDigest(res *frontend.Result) uint64 {
	var h uint64
	for _, d := range res.Devices {
		q := d.Sojourn.PercentileMulti(50, 99, 99.9)
		h = digest(h, int64(d.Device), d.Offered, d.Admitted, d.ShedArrival, d.ShedQueue, d.Completed,
			d.SLOMet, d.UsersServed, d.Bursts, int64(d.PeakBacklog), int64(d.Start), int64(d.End),
			d.Sojourn.Count(), int64(d.Sojourn.Mean()), int64(d.Sojourn.Max()), int64(q[0]), int64(q[1]), int64(q[2]))
	}
	return h
}

// checkFleet applies the per-round oracle: every offered request is
// either completed or shed, and the virtual results match want.
func checkFleet(r *run, res *frontend.Result, want uint64, what string) {
	r.attempted += res.Offered()
	r.check(res.Completed()+res.Shed() == res.Offered(), "fleet %s: %d completed + %d shed != %d offered",
		what, res.Completed(), res.Shed(), res.Offered())
	r.check(fleetDigest(res) == want, "fleet %s: virtual results differ from the first round at this seed", what)
}

func runFleet(r *run) error {
	if r.trace {
		return fleetTraced(r)
	}
	_, setup, err := timeSetups(fleetSetups, func() (*frontend.Result, error) {
		res, _, _, err := fleetRound(r.seed, 2, fleetTimedWorkers)
		return res, err
	}, func(*frontend.Result) {})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", setup)

	var m meter
	first, err := fleetRounds(r, &m)
	if err != nil {
		return err
	}
	r.set("ops_per_s", m.rate())
	res, _, _, err := fleetRound(r.seed, fleetRequests, fleetWorkers)
	if err != nil {
		return err
	}
	checkFleet(r, res, fleetDigest(first), fmt.Sprintf("at %d workers", fleetWorkers))
	return nil
}

// fleetRounds runs rounds at fleetTimedWorkers on m for r.seconds (at
// least two) and checks each against the first, which it returns.
func fleetRounds(r *run, m *meter) (*frontend.Result, error) {
	var first *frontend.Result
	var err error
	rounds := 0
	m.run(2, r.seconds, func() int64 {
		if err != nil {
			return 0
		}
		var res *frontend.Result
		res, _, _, err = fleetRound(r.seed, fleetRequests, fleetTimedWorkers)
		if err != nil {
			return 0
		}
		if first == nil {
			first = res
		}
		checkFleet(r, res, fleetDigest(first), fmt.Sprintf("round %d", rounds))
		rounds++
		return res.Offered()
	})
	return first, err
}

func fleetTraced(r *run) error {
	heap0 := heapAfterGC()
	allocs := startAllocs()
	var m meter
	var first *frontend.Result
	var err error
	if perr := profiled(r, func() { first, err = fleetRounds(r, &m) }); perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	offered := first.Offered()
	a, b := allocs.perOp(m.ops)
	r.set("runtime.allocs_per_op", a)
	r.set("runtime.bytes_per_op", b)
	r.set("runtime.heap_growth_per_op", float64(int64(heapAfterGC())-int64(heap0))/float64(m.ops))

	// Alternate worker counts for the epoch engine's speedup.
	want := fleetDigest(first)
	var w1, w2 []time.Duration
	var events uint64
	for i := 0; i < fleetPairs; i++ {
		for _, workers := range []int{fleetTimedWorkers, fleetWorkers} {
			res, ev, d, err := fleetRound(r.seed, fleetRequests, workers)
			if err != nil {
				return err
			}
			checkFleet(r, res, want, fmt.Sprintf("at %d workers", workers))
			events = ev
			if workers == fleetTimedWorkers {
				w1 = append(w1, d)
			} else {
				w2 = append(w2, d)
			}
		}
	}
	rounds := float64(m.ops) / float64(offered)
	host := float64(m.host.Nanoseconds()) / rounds
	start, end := first.Window()
	r.set("sim.events_per_op", float64(events)/float64(offered))
	r.set("sim.host_ns_per_event", host/float64(events))
	r.set("sim.wall_ns_per_virtual_ns", host/float64(end-start))
	r.set("sim.epoch_speedup", medianSeconds(w1)/medianSeconds(w2))
	peak := 0
	for _, d := range first.Devices {
		peak = max(peak, d.PeakBacklog)
	}
	var met int64
	for _, d := range first.Devices {
		met += d.SLOMet
	}
	soj := first.Sojourn()
	r.set("frontend.shed_pct", first.ShedPct())
	r.set("frontend.peak_backlog", float64(peak))
	r.set("frontend.users_served", float64(first.UsersServed()))
	r.set("virt.goodput_kops", first.Goodput()/1e3)
	r.set("virt.slo_pct", 100*float64(met)/float64(offered))
	r.set("virt.sojourn_p99_us", soj.Percentile(99).Micros())
	r.set("virt.sojourn_samples", float64(soj.Count()))
	return nil
}
