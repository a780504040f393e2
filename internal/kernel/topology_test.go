package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

// A fleet built from N copies of one preset is the duplicate-DevID
// trap: every copy hardcodes the same ID, so the Fig. 3 cross-device
// VBA check would compare equal IDs and silently pass. Topology boot
// must hand each device a unique identity — and the denial must then
// actually fire between two same-preset SSDs.
func TestSamePresetFleetDeniesCrossDeviceVBA(t *testing.T) {
	s := sim.New()
	dcfgs := []device.Config{
		device.OptaneP5800X(testCap),
		device.OptaneP5800X(testCap), // same preset, same hardcoded DevID
	}
	m, err := NewMachineN(s, DefaultConfig(), dcfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	id0 := m.Nodes[0].Dev.Config().DevID
	id1 := m.Nodes[1].Dev.Config().DevID
	if id0 == id1 {
		t.Fatalf("same-preset fleet booted with duplicate DevID %d", id0)
	}
	if id0 == 0 || id1 == 0 {
		t.Fatalf("fleet booted with zero DevID (%d, %d)", id0, id1)
	}
	if n0, n1 := m.Nodes[0].Dev.Config().Name, m.Nodes[1].Dev.Config().Name; n0 == n1 {
		t.Fatalf("same-preset fleet kept duplicate device name %q", n0)
	}

	pr := m.NewProcessOn(ext4.Root, 0)
	data := make([]byte, 16384)
	rand.New(rand.NewSource(5)).Read(data)
	s.Spawn("attacker", func(p *sim.Proc) {
		mkFile(t, p, pr, "/f", data)
		_, base, err := pr.OpenBypass(p, "/f", true)
		if err != nil || base == 0 {
			t.Errorf("OpenBypass: base=%d err=%v", base, err)
			return
		}
		// Legitimate path: the owning device serves the VBA.
		own, err := pr.CreateUserQueue(p, 8)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		do := func(q *nvme.QueuePair) nvme.Status {
			if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf}); err != nil {
				t.Error(err)
				return nvme.StatusInternalError
			}
			for {
				if c, ok := q.PopCQE(); ok {
					return c.Status
				}
				q.CQReady.Wait(p)
			}
		}
		if st := do(own); !st.OK() {
			t.Errorf("read on owning device: %v", st)
			return
		}
		// Malicious path: same PASID, same VBA, the *other* same-preset
		// device's queue. With the pre-fix duplicate IDs this read
		// would have translated and leaked device 1's sectors.
		evil, err := m.Nodes[1].Dev.CreateQueue(pr.PASID, 8)
		if err != nil {
			t.Error(err)
			return
		}
		if st := do(evil); st != nvme.StatusAccessDenied {
			t.Errorf("cross-device VBA read = %v, want access-denied", st)
		}
	})
	s.Run()
	if got := m.Nodes[1].Dev.Stats().BytesRead; got != 0 {
		t.Fatalf("second device moved %d bytes despite denial", got)
	}
	s.Shutdown()
	m.ReleaseResources()
}

// Mixed-preset fleets already carry distinct hardcoded IDs; boot must
// keep them (single-device boots depend on this for byte-identity
// with the pre-topology machine).
func TestMixedPresetFleetKeepsPresetDevIDs(t *testing.T) {
	s := sim.New()
	dcfgs := []device.Config{device.OptaneP5800X(testCap), device.ZSSD(testCap)}
	want := []uint8{dcfgs[0].DevID, dcfgs[1].DevID}
	m, err := NewMachineN(s, DefaultConfig(), dcfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range m.Nodes {
		if got := n.Dev.Config().DevID; got != want[i] {
			t.Errorf("node %d DevID = %d, want preset's %d", i, got, want[i])
		}
	}
	s.Shutdown()
	m.ReleaseResources()
}

func TestFleetBootErrors(t *testing.T) {
	s := sim.New()
	if _, err := NewMachineN(s, DefaultConfig(), nil, nil); err == nil {
		t.Error("empty fleet booted")
	}
	if _, err := NewMachineN(s, DefaultConfig(),
		[]device.Config{device.OptaneP5800X(testCap), device.OptaneP5800X(testCap)},
		make([]*storage.Store, 1)); err == nil {
		t.Error("store/device count mismatch accepted")
	}
	s.Shutdown()
}

// TestIdleMachineHoldsNoProc: the devices' command paths run as
// scheduler callbacks, so a booted machine that has gone idle holds no
// proc — right after boot and again after traffic on both devices.
// Snapshotting a booted machine depends on this: a proc's coroutine
// cannot be copied.
func TestIdleMachineHoldsNoProc(t *testing.T) {
	s := sim.New()
	dcfgs := []device.Config{device.OptaneP5800X(testCap), device.OptaneP5800X(testCap)}
	m, err := NewMachineN(s, DefaultConfig(), dcfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if n := s.Live(); n != 0 {
		t.Fatalf("booted idle machine holds %d live procs, want 0", n)
	}
	for node := range m.Nodes {
		pr := m.NewProcessOn(ext4.Root, node)
		s.SpawnOn(node, "app", func(p *sim.Proc) {
			mkFile(t, p, pr, "/f", make([]byte, 16384))
		})
	}
	s.Run()
	if n := s.Live(); n != 0 {
		t.Fatalf("machine idle after traffic holds %d live procs, want 0", n)
	}
	s.Shutdown()
	m.ReleaseResources()
}
