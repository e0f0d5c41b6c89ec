package network

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// lineJob builds a line of the given size and walks one packet from node 0
// to the far end (on Line(n), an internal node's port 1 faces its lower
// neighbour and port 2 its upper one), returning the in-band message
// count — a self-contained simulation suitable for fanning out. The walk
// crosses every link once, so the expected count is size-1.
func lineJob(size int) (int, error) {
	g := topo.Line(size)
	n := New(g, Options{})
	for i := 0; i < n.NumSwitches(); i++ {
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 1, Match: openflow.MatchAll().WithInPort(1),
			Actions: []openflow.Action{openflow.Output{Port: 2}},
			Goto:    openflow.NoGoto, Cookie: "fwd",
		})
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 0, Match: openflow.MatchAll(),
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Goto:    openflow.NoGoto, Cookie: "start",
		})
	}
	pkt := openflow.NewPacket(0x0900, 0)
	n.Inject(0, openflow.PortController, pkt, 0, PacketOut)
	if _, err := n.Run(); err != nil {
		return 0, err
	}
	return n.TotalInBand(), nil
}

// TestSweepMatchesSequential fans a mixed-size batch of simulations across
// the worker pool and asserts every job's result is identical to the
// sequential reference — the correctness contract of the runner. Run under
// -race this also proves the jobs share no unsynchronised state (the
// packet freelist in particular).
func TestSweepMatchesSequential(t *testing.T) {
	sizes := []int{4, 8, 16, 32, 4, 8, 16, 32, 64, 5, 7, 9}

	seq := make([]int, len(sizes))
	if err := Sweep(len(sizes), 1, func(i int) error {
		v, err := lineJob(sizes[i])
		seq[i] = v
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 2, 4, len(sizes) + 5} {
		par := make([]int, len(sizes))
		if err := Sweep(len(sizes), workers, func(i int) error {
			v, err := lineJob(sizes[i])
			par[i] = v
			return err
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range sizes {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d job %d: in-band %d, sequential %d",
					workers, i, par[i], seq[i])
			}
		}
	}
}

// TestSweepJoinsErrors checks that every failing job's error surfaces,
// regardless of which worker ran it.
func TestSweepJoinsErrors(t *testing.T) {
	err := Sweep(10, 3, func(i int) error {
		if i%4 == 0 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	for _, i := range []int{0, 4, 8} {
		if want := fmt.Sprintf("job %d failed", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestSweepZeroJobs exercises the degenerate edges.
func TestSweepZeroJobs(t *testing.T) {
	if err := Sweep(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := Sweep(1, -1, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single job did not run")
	}
}

// reusableLine is the per-worker state of the SweepWith tests: one
// pre-built line network plus a count of the iterations it has served.
// Each measurement resets accounting, walks one packet end to end, and
// returns the in-band count — identical on every iteration precisely
// because the reset discipline works.
type reusableLine struct {
	n    *Network
	size int
	runs int
}

func newReusableLine(size int) *reusableLine {
	g := topo.Line(size)
	n := New(g, Options{})
	for i := 0; i < n.NumSwitches(); i++ {
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 1, Match: openflow.MatchAll().WithInPort(1),
			Actions: []openflow.Action{openflow.Output{Port: 2}},
			Goto:    openflow.NoGoto, Cookie: "fwd",
		})
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 0, Match: openflow.MatchAll(),
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Goto:    openflow.NoGoto, Cookie: "start",
		})
	}
	return &reusableLine{n: n, size: size}
}

func (r *reusableLine) measure() (int, error) {
	r.runs++
	r.n.ResetAccounting()
	r.n.Inject(0, openflow.PortController, openflow.NewPacket(0x0900, 0), r.n.Sim.Now(), PacketOut)
	if _, err := r.n.Run(); err != nil {
		return 0, err
	}
	return r.n.TotalInBand(), nil
}

// TestSweepWithReusesState checks the amortization contract: every live
// worker builds its network exactly once, all iterations land on one of
// those networks, and the measurements still match a fresh-network
// sequential reference. Under -race this also proves per-worker states
// need no synchronisation of their own.
func TestSweepWithReusesState(t *testing.T) {
	const jobs, size = 16, 12
	want, err := lineJob(size)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		built := make([]*reusableLine, workers)
		out := make([]int, jobs)
		err := SweepWith(jobs, workers,
			func(w int) *reusableLine {
				if built[w] != nil {
					t.Errorf("worker %d built its state twice", w)
				}
				built[w] = newReusableLine(size)
				return built[w]
			},
			func(st *reusableLine, i int) error {
				v, err := st.measure()
				out[i] = v
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for w, st := range built {
			if st == nil {
				t.Fatalf("workers=%d: worker %d never built state", workers, w)
			}
			total += st.runs
		}
		if total != jobs {
			t.Fatalf("workers=%d: %d runs across states, want %d", workers, total, jobs)
		}
		for i, v := range out {
			if v != want {
				t.Fatalf("workers=%d job %d: in-band %d, fresh network %d", workers, i, v, want)
			}
		}
	}
}

// TestSweepWithJoinsErrors mirrors TestSweepJoinsErrors on the stateful
// variant: failures surface regardless of which worker's state ran them.
func TestSweepWithJoinsErrors(t *testing.T) {
	err := SweepWith(9, 2,
		func(w int) int { return w },
		func(_ int, i int) error {
			if i%3 == 0 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	for _, i := range []int{0, 3, 6} {
		if want := fmt.Sprintf("job %d failed", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}
