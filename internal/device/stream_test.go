package device

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The tests in this file pin the device's command path to completion
// streams recorded from the proc-based implementation it replaced: for
// every command, the CID, the status and the virtual instant its CQE
// was posted, in posting order. The callback state machine must
// reproduce each stream exactly — admission order, channel hand-off,
// flush drain, refill wakes and fault stages included.

// watched is one queue whose completions a stream records, under a
// label that tells devices apart.
type watched struct {
	label string
	q     *nvme.QueuePair
	n     int // completions to collect
}

// completionStream spawns one poller per queue, runs the simulation
// and returns every completion as "label:cid:status@ns" in the order
// the pollers observed them, then the number of events dispatched. A
// poller wakes on the CQReady broadcast the CQE post makes, so its
// clock is the completion instant.
func completionStream(t *testing.T, s *sim.Sim, ws []watched) string {
	t.Helper()
	var log []string
	for _, w := range ws {
		s.Spawn("poll-"+w.label, func(p *sim.Proc) {
			for got := 0; got < w.n; {
				c, ok := w.q.PopCQE()
				if !ok {
					w.q.CQReady.Wait(p)
					continue
				}
				got++
				log = append(log, fmt.Sprintf("%s:%d:%d@%d", w.label, c.CID, c.Status, p.Now()))
			}
		})
	}
	s.Run()
	if want := totalCompletions(ws); len(log) != want {
		t.Fatalf("observed %d completions, want %d:\n%s", len(log), want, strings.Join(log, "\n"))
	}
	return fmt.Sprintf("%s events=%d", strings.Join(log, " "), s.Processed())
}

func totalCompletions(ws []watched) int {
	n := 0
	for _, w := range ws {
		n += w.n
	}
	return n
}

func submitAll(t *testing.T, q *nvme.QueuePair, es ...nvme.SQE) {
	t.Helper()
	for _, e := range es {
		if err := q.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
}

// cmd builds an SQE with a buffer sized to its transfer.
func cmd(op nvme.Opcode, cid uint16, slba, sectors int64) nvme.SQE {
	e := nvme.SQE{Opcode: op, CID: cid, SLBA: slba, Sectors: sectors}
	if op == nvme.OpRead || op == nvme.OpWrite {
		e.Buf = make([]byte, sectors*storage.SectorSize)
	}
	return e
}

func checkStream(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		g, w := strings.Fields(got), strings.Fields(want)
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("completion %d = %s, recorded %s\ngot:  %s\nwant: %s", i, g[i], w[i], got, want)
			}
		}
		t.Fatalf("stream length %d, recorded %d\ngot:  %s\nwant: %s", len(g), len(w), got, want)
	}
}

// TestStreamFlushBehindWrites: a flush admitted while writes are in
// flight completes only after they drain — including a write admitted
// right behind it — and a second flush waits again.
func TestStreamFlushBehindWrites(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	q, _ := d.CreateQueue(0, 16)
	submitAll(t, q,
		cmd(nvme.OpWrite, 1, 0, 8),
		cmd(nvme.OpWrite, 2, 64, 64),
		cmd(nvme.OpRead, 3, 0, 8),
		cmd(nvme.OpFlush, 4, 0, 0),
		cmd(nvme.OpWrite, 5, 200, 16),
		cmd(nvme.OpFlush, 6, 0, 0),
		cmd(nvme.OpRead, 7, 64, 1),
	)
	got := completionStream(t, s, []watched{{"q", q, 7}})
	checkStream(t, got, recordedFlushBehindWrites)
	s.Shutdown()
}

// TestStreamFlushBehindOneWrite: a flush that starts with exactly one
// write in flight waits for that write to drain.
func TestStreamFlushBehindOneWrite(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	q, _ := d.CreateQueue(0, 4)
	s.Spawn("app", func(p *sim.Proc) {
		submitAll(t, q, cmd(nvme.OpWrite, 1, 0, 8))
		p.Sleep(sim.Microsecond)
		submitAll(t, q, cmd(nvme.OpFlush, 2, 0, 0))
	})
	got := completionStream(t, s, []watched{{"q", q, 2}})
	checkStream(t, got, recordedFlushBehindOneWrite)
	s.Shutdown()
}

// TestStreamChannelWait: eleven commands over three queues on six
// channels, so admissions wait for a channel hand-off; an out-of-range
// read and an unknown opcode finish without media time.
func TestStreamChannelWait(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var ws []watched
	for i := 0; i < 3; i++ {
		q, _ := d.CreateQueue(0, 8)
		ws = append(ws, watched{fmt.Sprintf("q%d", i+1), q, 0})
	}
	submitAll(t, ws[0].q,
		cmd(nvme.OpRead, 1, 0, 256),
		cmd(nvme.OpRead, 2, 8, 8),
		cmd(nvme.OpRead, 3, d.Sectors(), 8),
		cmd(nvme.OpWrite, 4, 16, 32),
	)
	submitAll(t, ws[1].q,
		cmd(nvme.OpWrite, 1, 512, 128),
		cmd(nvme.Opcode(0x7f), 2, 0, 0),
		cmd(nvme.OpWriteZeroes, 3, 1024, 64),
		cmd(nvme.OpRead, 4, 24, 8),
	)
	submitAll(t, ws[2].q,
		cmd(nvme.OpRead, 1, 32, 8),
		cmd(nvme.OpRead, 2, 40, 64),
		cmd(nvme.OpRead, 3, 48, 8),
	)
	ws[0].n, ws[1].n, ws[2].n = 4, 4, 3
	got := completionStream(t, s, ws)
	checkStream(t, got, recordedChannelWait)
	s.Shutdown()
}

// TestStreamTokenPrioRefill: with every backlogged queue throttled the
// dispatcher re-arbitrates only when a scheduleWake timer rings, and
// strict priority decides between the queues each refill makes
// eligible.
func TestStreamTokenPrioRefill(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewTokenPrio())
	hi, _ := d.CreateQueue(0, 8)
	lo, _ := d.CreateQueue(0, 8)
	hi.QoS = nvme.QoS{Priority: 0, RateOps: 200_000, Burst: 1}
	lo.QoS = nvme.QoS{Priority: 1, RateOps: 100_000, Burst: 2}
	for i := 0; i < 5; i++ {
		submitAll(t, hi, cmd(nvme.OpRead, uint16(i+1), int64(8*i), 8))
	}
	for i := 0; i < 4; i++ {
		submitAll(t, lo, cmd(nvme.OpRead, uint16(i+1), int64(8*i), 8))
	}
	got := completionStream(t, s, []watched{{"hi", hi, 5}, {"lo", lo, 4}})
	checkStream(t, got, recordedTokenPrioRefill)
	s.Shutdown()
}

// TestStreamVFSharesParentChannels: a virtual function and its parent
// flood the one channel pool they share, so each device's admissions
// queue behind the other's.
func TestStreamVFSharesParentChannels(t *testing.T) {
	s := sim.New()
	parent := New(s, OptaneP5800X(1<<28))
	vf, err := Carve(s, parent, "vf", 9, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := parent.CreateQueue(0, 8)
	vq, _ := vf.CreateQueue(0, 8)
	for i := 0; i < 6; i++ {
		submitAll(t, pq, cmd(nvme.OpRead, uint16(i+1), int64(16*i), 16))
		submitAll(t, vq, cmd(nvme.OpWrite, uint16(i+1), int64(8*i), 8))
	}
	got := completionStream(t, s, []watched{{"pf", pq, 6}, {"vf", vq, 6}})
	checkStream(t, got, recordedVFSharesParent)
	s.Shutdown()
}

// TestStreamVBAAndFaults: VBA reads and writes through the IOMMU
// (serialized and overlapped translation, a translation fault after the
// ATS exchange) under injected latency spikes, command timeouts and
// media errors.
func TestStreamVBAAndFaults(t *testing.T) {
	s := sim.New()
	d, q, base := vbaSetup(s, true)
	name := d.Config().Name
	d.SetEnv(faults.NewInjector(1, []faults.Rule{
		{Site: faults.DeviceSite(name, faults.KindDelay), Period: 3, Delay: 7 * sim.Microsecond},
		{Site: faults.DeviceSite(name, faults.KindTimeout), Period: 5},
		{Site: faults.DeviceSite(name, faults.KindMedia), Period: 4},
	}), nil)
	for i := 0; i < 12; i++ {
		op := nvme.OpRead
		if i%3 == 1 {
			op = nvme.OpWrite
		}
		vba := base + uint64(4096*(i%4))
		if i%5 == 4 {
			vba = base + 1<<30 // unmapped: translation fault
		}
		e := cmd(op, uint16(i+1), 0, 8)
		e.UseVBA, e.VBA = true, vba
		submitAll(t, q, e)
	}
	got := completionStream(t, s, []watched{{"q", q, 12}})
	checkStream(t, got, recordedVBAAndFaults)
	s.Shutdown()
}

// TestStreamClosedLoop: eight threads run closed-loop I/O on their own
// queues, so completions and the next submissions meet the fetch
// engine at the same instants as channel hand-offs do; one thread
// flushes with exactly one of its writes in flight.
func TestStreamClosedLoop(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var log []string
	for i := 0; i < 8; i++ {
		q, _ := d.CreateQueue(0, 4)
		s.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			wait := func(n int) {
				for n > 0 {
					c, ok := q.PopCQE()
					if !ok {
						q.CQReady.Wait(p)
						continue
					}
					n--
					log = append(log, fmt.Sprintf("w%d:%d:%d@%d", i, c.CID, c.Status, p.Now()))
				}
			}
			p.Sleep(sim.Time(150 * i))
			if i == 7 {
				submitAll(t, q, cmd(nvme.OpWrite, 1, 0, 8))
				p.Sleep(3 * sim.Microsecond)
				submitAll(t, q, cmd(nvme.OpFlush, 2, 0, 0))
				wait(2)
				return
			}
			for n := 0; n < 4; n++ {
				op := nvme.OpRead
				if (i+n)%3 == 0 {
					op = nvme.OpWrite
				}
				submitAll(t, q, cmd(op, uint16(n+1), int64(64*i+8*n), int64(8*(1+(i+n)%3))))
				wait(1)
				if i%2 == 1 { // even threads resubmit at the completion instant
					p.Sleep(200)
				}
			}
		})
	}
	s.Run()
	got := fmt.Sprintf("%s events=%d", strings.Join(log, " "), s.Processed())
	checkStream(t, got, recordedClosedLoop)
	s.Shutdown()
}

// Recorded completion streams (label:cid:status@ns ... events=N).
const (
	recordedFlushBehindWrites   = "q:7:0@3508 q:3:0@4020 q:1:0@4460 q:5:0@5121 q:2:0@9085 q:4:0@14085 q:6:0@14085 events=25"
	recordedFlushBehindOneWrite = "q:1:0@4460 q:2:0@9460 events=13"
	recordedChannelWait         = "q2:2:2@0 q1:3:1@0 q2:3:0@3800 q3:1:0@4020 q1:2:0@4020 q3:3:0@7820 q2:4:0@8040 q3:2:0@8116 q1:4:0@10462 q2:1:0@14370 q1:1:0@22159 events=40"
	recordedTokenPrioRefill     = "hi:1:0@4020 lo:1:0@4020 lo:2:0@4020 hi:2:0@9021 hi:3:0@14021 lo:3:0@14021 hi:4:0@19022 lo:4:0@24021 hi:5:0@24022 events=39"
	recordedVFSharesParent      = "pf:1:0@4605 pf:2:0@4605 pf:3:0@4605 pf:4:0@4605 pf:5:0@4605 pf:6:0@4605 vf:1:0@9065 vf:2:0@9065 vf:3:0@9065 vf:4:0@9065 vf:5:0@9065 vf:6:0@9065 events=31"
	recordedClosedLoop          = "w0:1:0@4460 w1:1:0@4755 w3:1:0@4910 w4:1:0@5205 w2:1:0@5490 w5:1:0@5940 w6:1:0@8920 w7:1:0@9215 w0:2:0@9515 w3:2:0@10095 w1:2:0@10395 w4:2:0@11130 w2:2:0@13380 w5:2:0@13675 w6:2:0@14120 w0:3:0@15285 w3:3:0@15585 w1:3:0@15590 w4:3:0@17840 w2:3:0@18280 w5:3:0@18725 w0:4:0@20045 w3:4:0@20245 w6:3:0@20475 w1:4:0@22445 w4:4:0@22885 w2:4:0@23915 w6:4:0@24935 w5:4:0@25235 w7:2:0@25245 events=164"
	recordedVBAAndFaults        = "q:5:3@550 q:2:0@4460 q:1:0@4570 q:4:0@4570 q:10:3@5120 q:8:6@8920 q:11:0@9580 q:3:0@11570 q:9:0@16140 q:12:6@20490 q:7:7@500550 q:6:7@507000 events=46"
)

// TestIdleDeviceHoldsNoProc: a device and a virtual function carved
// from it hold no proc while idle, before and after traffic.
func TestIdleDeviceHoldsNoProc(t *testing.T) {
	s := sim.New()
	parent := newSSD(s)
	vf, err := Carve(s, parent, "vf", 9, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if n := s.Live(); n != 0 {
		t.Fatalf("idle device holds %d live procs, want 0", n)
	}
	pq, _ := parent.CreateQueue(0, 4)
	vq, _ := vf.CreateQueue(0, 4)
	submitAll(t, pq, cmd(nvme.OpRead, 1, 0, 8), cmd(nvme.OpWrite, 2, 8, 8), cmd(nvme.OpFlush, 3, 0, 0))
	submitAll(t, vq, cmd(nvme.OpWrite, 1, 0, 8))
	completionStream(t, s, []watched{{"pf", pq, 3}, {"vf", vq, 1}})
	if n := s.Live(); n != 0 {
		t.Fatalf("device idle after traffic holds %d live procs, want 0", n)
	}
	s.Shutdown()
}
