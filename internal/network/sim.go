// Package network wires openflow switches together according to a topo
// graph and runs them under a deterministic discrete-event simulator:
// links with latency and failure modes (down, silent blackhole,
// probabilistic loss), controller and local-host attachment points, and
// exact per-EtherType message accounting — the measurement substrate for
// the paper's Table 2.
//
//simlint:deterministic
package network

import (
	"time"

	"smartsouth/internal/openflow"
	"smartsouth/internal/telemetry"
)

// Time is simulation time in nanoseconds.
type Time int64

// eventKind selects the typed payload of an event. The per-hop path
// (process, packet-in, self-delivery) uses typed records carrying switch,
// port and packet fields so that scheduling a hop allocates nothing; the
// generic callback kind remains for control-plane timers and scheduled
// topology changes, which are rare.
type eventKind uint8

const (
	// evFunc runs a generic callback (timers, scheduled link failures,
	// explicit action-list packet-outs).
	evFunc eventKind = iota
	// evProcess runs the pipeline of switch sw for pkt arriving on port.
	// The simulator owns every in-fabric packet between its emission and
	// its processing: afterwards the packet is either forwarded onward as
	// an emission (the unicast fast path consumes the arrival in place)
	// or released to the freelist.
	evProcess
	// evPacketIn delivers pkt to the network's OnPacketIn attachment (the
	// out-of-band controller channel). The callback takes ownership; the
	// controller recycles inbox packets when its inbox is cleared.
	evPacketIn
	// evSelf delivers pkt to OnSelf (the switch-local host). The callback
	// takes ownership.
	evSelf
)

// event is one scheduled occurrence. seq breaks ties so simultaneous
// events run in schedule order, keeping the simulation deterministic: the
// (at, seq) pair is a strict total order, so the pop sequence is the same
// for any correct heap implementation.
type event struct {
	at   Time
	enq  Time // schedule time, for the queue-wait telemetry
	seq  uint64
	kind eventKind
	sw   int
	port int
	pkt  *openflow.Packet
	fn   func()
}

func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is a minimal deterministic discrete-event loop. The heap is
// hand-rolled over a plain event slice: container/heap would box every
// pushed event into an interface value, which is an allocation per
// scheduled hop.
type Sim struct {
	now    Time
	seq    uint64
	events []event

	// lane owns this Sim and executes its events; set by network.New.
	lane *lane

	// MaxSteps bounds the number of events processed per Run call, so a
	// miscompiled rule set that ping-pongs a packet forever surfaces as
	// ErrEventLimit instead of a hang. Zero means the default.
	MaxSteps int

	// batch is the scratch run of same-switch, same-timestamp process
	// events lane.step drains as one ExecBatch; reused across steps.
	batch []event

	// stats is the telemetry staging of this (single-goroutine) loop; nil
	// disables recording. Plain increments here, folded into the network's
	// totals by Network.Run at Run boundaries.
	stats *telemetry.Counters
}

// The typed event kinds double as telemetry kind indices; the two enums
// must stay aligned.
var _ = [1]struct{}{}[int(evFunc)-telemetry.KindFunc]
var _ = [1]struct{}{}[int(evProcess)-telemetry.KindProcess]
var _ = [1]struct{}{}[int(evPacketIn)-telemetry.KindPacketIn]
var _ = [1]struct{}{}[int(evSelf)-telemetry.KindSelf]

const defaultMaxSteps = 10_000_000

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// push inserts e into the heap (sift-up).
func (s *Sim) push(e event) {
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down). The vacated tail
// slot is zeroed so the heap's backing array does not pin packets or
// closures after they run.
func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	s.events = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].less(&h[min]) {
			min = l
		}
		if r < n && h[r].less(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// schedule enqueues a typed event at absolute time t (clamped to now for
// past times).
func (s *Sim) schedule(t Time, e event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.at, e.seq, e.enq = t, s.seq, s.now
	s.push(e)
}

// At schedules fn to run at absolute time t (clamped to now for past
// times).
func (s *Sim) At(t Time, fn func()) {
	s.schedule(t, event{kind: evFunc, fn: fn})
}

// ErrEventLimit is returned by Run when the step budget is exhausted,
// which almost always means an installed rule set loops packets forever.
type ErrEventLimit struct{ Steps int }

func (e ErrEventLimit) Error() string { return "network: event limit exceeded" }

// Run processes events until the queue drains, returning the number of
// events processed, or ErrEventLimit if MaxSteps was hit. It is the
// single-loop driver of lane.step; the sharded drivers (runWindow, the
// coordinator's control step) run the same body under other stop
// conditions.
func (s *Sim) Run() (int, error) {
	limit := s.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	processed := 0
	for len(s.events) > 0 {
		if processed >= limit {
			return processed, ErrEventLimit{Steps: processed}
		}
		processed += s.lane.step(limit - processed)
	}
	return processed, nil
}

// step pops the lane's earliest event and executes it, returning the
// number of events consumed: one, or — for a process event — the whole
// batch drained with it, at most budget (which must be at least one).
// Every event of every loop, single or sharded, runs through this body.
func (l *lane) step(budget int) int {
	s := &l.sim
	st := s.stats
	tick := l.ticks
	l.ticks++
	var t0 time.Time
	sampled := false
	histSample := false
	if st != nil && tick&7 == 0 {
		// The depth and queue-wait histograms are sampled 1-in-8 steps:
		// stride sampling preserves the distributions while keeping the two
		// Observe calls (~7ns together) off the per-event budget. The
		// counters stay exact. Wall-clock cost is sampled more sparsely
		// still (1-in-64) because each sample costs two time.Now calls. The
		// strides run off the lane's persistent tick so short runs and
		// windows do not skew the sampled distributions.
		histSample = true
		st.ObserveHeapDepth(int64(len(s.events)))
		if tick&63 == 0 {
			//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
			t0 = time.Now()
			sampled = true
		}
	}
	e := s.pop()
	s.now = e.at
	if st != nil {
		st.Events[e.kind]++
		if histSample {
			st.QueueWait.Observe(int64(e.at - e.enq))
		}
	}
	consumed := 1
	switch e.kind {
	case evFunc:
		e.fn()
	case evProcess:
		// Drain the maximal run of process events for the same switch
		// at the same timestamp into one batch. Pops come off in
		// (at, seq) order, so the batch preserves schedule order; and
		// because pipeline execution never schedules events (only
		// dispatch does, after the batch executes), running the batch
		// as exec-all-then-dispatch-in-order assigns exactly the same
		// event sequence numbers as one-at-a-time processing did —
		// batching is invisible to the determinism golden. Equal
		// timestamps also keep the batch inside any window that admitted
		// its first event.
		b := append(s.batch[:0], e)
		for len(s.events) > 0 && len(b) < budget {
			nx := &s.events[0]
			if nx.at != e.at || nx.kind != evProcess || nx.sw != e.sw {
				break
			}
			b = append(b, s.pop())
		}
		s.batch = b
		if st != nil && len(b) > 1 {
			st.Events[evProcess] += uint64(len(b) - 1)
		}
		// processBatch releases (or forwards) the batch packets; the
		// scratch only needs its references dropped.
		l.processBatch(b)
		for i := range b {
			b[i] = event{}
		}
		consumed = len(b)
	case evPacketIn:
		l.countPacketIn(e.pkt) // Run derives the telemetry total from it
		if n := l.net; n.OnPacketIn != nil {
			n.OnPacketIn(e.sw, e.pkt)
		}
	case evSelf:
		if st != nil {
			st.SelfDeliver++
		}
		if n := l.net; n.OnSelf != nil {
			n.OnSelf(e.sw, e.pkt)
		}
	}
	if sampled {
		//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
		st.HopWallNs.Observe(time.Since(t0).Nanoseconds())
	}
	return consumed
}
