package network

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"smartsouth/internal/openflow"
	"smartsouth/internal/telemetry"
)

// maxTime is the largest representable simulation time; the window end of
// a shard with no cross-shard links.
const maxTime = Time(math.MaxInt64)

// lane is one event loop of the network: its heap (sim), its execution
// scratch, and its share of the accounting state. A single-loop network
// has exactly one lane, which doubles as the control lane; a sharded
// network has one worker lane per shard (each owning a subset of the
// switches) plus a dedicated control lane that owns no switches and runs
// only at window barriers. Everything a lane touches while its window
// runs is lane-local — scratch, counters, flight ring, telemetry staging,
// the owned switches and the rngs/stats of their outgoing link directions
// — which is what lets worker windows run on separate goroutines without
// locks on the hop path.
type lane struct {
	net    *Network
	id     int
	worker bool // a shard loop (runs concurrently); false for the control lane
	sim    Sim  //simlint:lanelocal

	// Batched execution scratch (see processBatch); reset and reused on
	// every batch so the steady-state hop path does not allocate.
	xc       *openflow.ExecContext     //simlint:lanelocal
	batchIn  []*openflow.Packet        //simlint:lanelocal
	batchRes []openflow.Result         //simlint:lanelocal
	batchRec []*telemetry.FlightRecord //simlint:lanelocal
	batchPre []*openflow.Packet        //simlint:lanelocal

	// Interned in-band accounting (the "in-band #msgs / size" columns of
	// Table 2). Every transmission attempt counts (a message swallowed by
	// a blackhole was still sent). lastIdx caches the slot of the most
	// recently counted EtherType: traversals send long runs of one type,
	// so the common case is a single comparison instead of a map probe.
	// The public map views aggregate across lanes.
	counters []ethCounter   //simlint:lanelocal
	ethIdx   map[uint16]int //simlint:lanelocal
	lastIdx  int            //simlint:lanelocal

	// Per-lane flight ring and decoder cache; the decoder table itself
	// (Network.tagDec) is shared read-only. The ring is also the causal
	// tracer's span store (Options.Timeline): spanSeq numbers the lane's
	// traced executions (span ids are lane+1 in the high bits — see
	// telemetry.SpanRecord — so lanes never collide without atomics).
	flight  *telemetry.Flight //simlint:lanelocal
	lastDec int               //simlint:lanelocal
	spanSeq uint32            //simlint:lanelocal

	// Cross-shard routing (worker lanes only). out[d] buffers deliveries
	// to shard d during a window; ctlOut buffers controller/self events.
	// Both are exchanged at the barrier.
	out    [][]xev //simlint:lanelocal
	ctlOut []xev   //simlint:lanelocal

	// Window handoff (see post): bounds, epochs posted and done, the park
	// handshake, and the last window's event count. ticks counts the steps
	// the lane has ever run: the stride base of step's telemetry sampling.
	end        Time          //simlint:lanelocal
	budget     int           //simlint:lanelocal
	epoch      atomic.Uint64 //simlint:lanelocal
	done       atomic.Uint64 //simlint:lanelocal
	parked     atomic.Bool   //simlint:lanelocal
	wake       chan struct{} //simlint:lanelocal
	wprocessed int           //simlint:lanelocal
	ticks      uint64        //simlint:lanelocal

	// busyNs is the wall time the lane spent inside its last window, read
	// by the coordinator at the barrier — the raw input of the stall and
	// load-imbalance series.
	busyNs int64 //simlint:lanelocal
}

// xev is one buffered cross-lane event: a delivery to another shard's
// switch or a controller/self handoff, exchanged at window barriers.
type xev struct {
	at   Time
	sw   int
	port int
	kind eventKind
	pkt  *openflow.Packet
}

// laneFor returns the lane owning switch sw.
func (n *Network) laneFor(sw int) *lane {
	if !n.multi {
		return n.ctl
	}
	return n.lanes[n.shardOf[sw]]
}

// processBatch runs one batch of arrivals at a single switch through the
// pipeline (one ExecBatch call) and dispatches each result in arrival
// order, consuming the arrival packets: each is either forwarded onward
// as its result's stolen emission (the unicast fast path — the packet
// that arrived is the packet that leaves, no copy) or released here.
// Execution mutates arrivals in place, so anything that must see
// pre-execution state — the flight recorder's tag decode, the exec
// observers' packet view — is captured or cloned before ExecBatch runs.
// The emissions of each result are consumed synchronously by dispatch,
// so nothing outlives the call.
func (l *lane) processBatch(evs []event) {
	n := l.net
	swID := evs[0].sw
	in := l.batchIn[:0]
	for i := range evs {
		p := evs[i].pkt
		p.InPort = evs[i].port
		in = append(in, p)
	}
	l.batchIn = in
	for cap(l.batchRes) < len(evs) {
		l.batchRes = append(l.batchRes[:cap(l.batchRes)], openflow.Result{})
	}
	res := l.batchRes[:len(evs)]

	st := l.sim.stats
	var recs []*telemetry.FlightRecord
	var claim0 uint64 // sequence number of the batch's first claim
	if l.flight != nil && len(in) <= l.flight.Cap() {
		// Claim one ring slot per arrival and decode the tag state straight
		// into it, before execution rewrites the packets in place: the
		// record documents the packet as it arrived. The result fields are
		// filled in after ExecBatch — and before dispatch claims any
		// further slots, so with the batch bounded by the ring capacity no
		// claimed slot can be recycled while it is still pending. A batch
		// larger than the whole ring (degenerate; the ring would retain
		// only its tail anyway) goes unrecorded.
		//
		// A traced arrival's record is also its causal span: it takes the
		// lane's next span id and re-stamps the packet's SpanID with it
		// *before* execution — emissions are cloned from the arrival while
		// ExecBatch runs, so they inherit this execution as their parent,
		// which is the whole parent→child edge mechanism.
		//
		// The claims are consecutive, so arrival i's record is sequence
		// number claim0+i: that is how its cookie finds its ring slot.
		recs = l.batchRec[:0]
		claim0 = l.flight.Total()
		at := int64(l.sim.now)
		seq0 := l.spanSeq
		for _, p := range in {
			r := l.flight.Slot()
			r.At = at
			r.Kind = telemetry.FlightExec
			r.Sw = int16(swID)
			r.Port = int16(p.InPort)
			r.Eth = p.EthType
			r.Lane = uint16(l.id)
			if d := l.decoderFor(p.EthType); d != nil {
				r.NumTags = d.n
				r.NameIdx = d.nameIdx
				d.Capture(swID, p.Tag, &r.Tags)
			}
			if p.TraceID != 0 {
				l.spanSeq++
				r.Trace = p.TraceID
				r.SpanSeq = l.spanSeq
				r.ParentLane, r.ParentSeq = uint16(p.SpanID>>32), uint32(p.SpanID)
				p.SpanID = uint64(l.id+1)<<32 | uint64(l.spanSeq)
			}
			recs = append(recs, r)
		}
		l.batchRec = recs
		if st != nil {
			st.SpanRecords += uint64(l.spanSeq - seq0)
		}
	}
	if len(n.execObs) > 0 {
		// Observers are promised the pre-execution packet; clone only in
		// observed (traced/metered) runs so the plain hot path stays one
		// clone cheaper.
		pre := l.batchPre[:0]
		for _, p := range in {
			pre = append(pre, p.ClonePooled())
		}
		l.batchPre = pre
		if st != nil {
			st.PoolGets += uint64(len(pre))
		}
	}

	n.switches[swID].ExecBatch(l.xc, in, res)

	// Complete every claimed exec record before dispatching anything:
	// dispatch records failed sends, and its slot claims must come after
	// the batch's pending fills (see the claim loop above).
	for i, rec := range recs {
		r := &res[i]
		rec.Matched = r.Matched
		l.flight.SetCookie(claim0+uint64(i), r.LastCookie)
		rec.Group = r.LastGroup
		rec.Bucket = r.LastBucket
		rec.Emits = uint8(min(len(r.Emissions), 255))
		recs[i] = nil
	}
	for i := range evs {
		r := &res[i]
		if st != nil {
			// One pool clone per emission, minus the emission that took
			// the arriving packet itself (the unicast fast path; see
			// Result.StoleInput).
			gets := uint64(len(r.Emissions))
			if r.StoleInput {
				gets--
			}
			st.PoolGets += gets
		}
		if len(n.execObs) > 0 {
			if l.worker {
				n.obsMu.Lock()
			}
			for _, ob := range n.execObs {
				ob(swID, evs[i].port, l.batchPre[i], r)
			}
			if l.worker {
				n.obsMu.Unlock()
			}
		}
		l.dispatch(swID, r)
	}
	for i := range l.batchPre {
		l.batchPre[i].Release()
		l.batchPre[i] = nil
	}
	l.batchPre = l.batchPre[:0]
	for i := range in {
		// The batch owns the arrivals: release each unless execution
		// forwarded it onward as an emission, then drop the reference so
		// the scratch does not pin it.
		if !res[i].StoleInput {
			in[i].Release()
		}
		in[i] = nil
	}
	l.batchIn = in[:0]
}

// dispatch routes pipeline emissions to links, the controller, or the
// local host. It consumes the emission packets: every packet is either
// handed to an attachment callback (which takes ownership), scheduled for
// delivery (released after processing), buffered for a window barrier, or
// released here. Controller and self deliveries from a worker lane are
// barrier traffic: they execute on the control lane, which is the only
// lane allowed to touch shared state (controller inbox, link modes,
// installs).
func (l *lane) dispatch(sw int, res *openflow.Result) {
	n := l.net
	for _, em := range res.Emissions {
		switch {
		case em.Port == openflow.PortController:
			if n.OnPacketIn != nil {
				if l.worker {
					l.ctlOut = append(l.ctlOut, xev{at: l.sim.now, kind: evPacketIn, sw: sw, pkt: em.Pkt})
				} else {
					l.sim.schedule(l.sim.now, event{kind: evPacketIn, sw: sw, pkt: em.Pkt})
				}
			} else {
				em.Pkt.Release()
			}
		case em.Port == openflow.PortSelf:
			if n.OnSelf != nil {
				if l.worker {
					l.ctlOut = append(l.ctlOut, xev{at: l.sim.now, kind: evSelf, sw: sw, pkt: em.Pkt})
				} else {
					l.sim.schedule(l.sim.now, event{kind: evSelf, sw: sw, pkt: em.Pkt})
				}
			} else {
				em.Pkt.Release()
			}
		case em.Port >= 1:
			l.send(sw, em.Port, em.Pkt)
		default:
			em.Pkt.Release()
		}
	}
}

// countInBand bumps the interned per-EtherType transmission counters and
// stamps them with the lane's clock — the only per-hop accounting there
// is; the per-service metrics read these counters.
//
//simlint:hotpath
func (l *lane) countInBand(eth uint16, size int) {
	idx := l.lastIdx
	if idx >= len(l.counters) || l.counters[idx].eth != eth {
		idx = l.intern(eth)
		l.lastIdx = idx
	}
	c := &l.counters[idx]
	if c.first < 0 {
		c.first = l.sim.now
	}
	c.last = l.sim.now
	c.msgs++
	c.bytes += size
}

// intern returns the index of eth's counter, adding one on first sight.
func (l *lane) intern(eth uint16) int {
	idx, ok := l.ethIdx[eth]
	if !ok {
		idx = len(l.counters)
		l.counters = append(l.counters, ethCounter{eth: eth, first: -1})
		l.ethIdx[eth] = idx
	}
	return idx
}

// countEntry counts a packet entering the data plane at time at: once per
// trigger, off the hop path.
func (l *lane) countEntry(via Entry, pkt *openflow.Packet, at Time) {
	c := &l.counters[l.intern(pkt.EthType)]
	if via == PacketOut {
		c.packetOuts++
		c.outBandBytes += pkt.Size()
	} else {
		c.hostInjects++
	}
	c.stamp(at)
}

// countPacketIn counts a packet leaving for the controller, by the lane's
// clock: once per collect, off the hop path.
func (l *lane) countPacketIn(pkt *openflow.Packet) {
	c := &l.counters[l.intern(pkt.EthType)]
	c.packetIns++
	c.outBandBytes += pkt.Size()
	c.stamp(l.sim.now)
}

// stamp widens the counter's [first, last] bracket to cover at.
func (c *ethCounter) stamp(at Time) {
	if c.first < 0 || at < c.first {
		c.first = at
	}
	if at > c.last {
		c.last = at
	}
}

// now is the lane's clock: the time of the event it is executing.
func (l *lane) now() Time { return l.sim.now }

// send puts a packet on the link attached to (sw, port), taking ownership
// of pkt. The transmit side of the link (mode, loss rng, direction stats)
// belongs to the sending switch's lane, so this needs no locks; only the
// observer fan-out is serialized across lanes.
func (l *lane) send(sw, port int, pkt *openflow.Packet) {
	n := l.net
	link := n.linkAt(sw, port)
	if link == nil {
		// Unconnected port: frame disappears, like real hardware.
		pkt.Release()
		return
	}
	l.countInBand(pkt.EthType, pkt.Size())
	to, toPort, delivered := link.transmit(sw)
	if st := l.sim.stats; st != nil {
		st.Hops++
		if !delivered {
			st.HopsDropped++
			// Only failed transmissions earn a ring entry: a delivered
			// hop is already visible as the receiving switch's exec
			// record, while a drop is precisely the event a post-mortem
			// needs and would otherwise be invisible.
			if l.flight != nil {
				r := l.flight.Slot()
				r.At = int64(l.sim.now)
				r.Kind = telemetry.FlightSend
				r.Sw = int16(sw)
				r.Port = int16(port)
				r.To = int16(to)
				r.ToPort = int16(toPort)
				r.Eth = pkt.EthType
				r.Lane = uint16(l.id)
			}
		}
	}
	if len(n.hopObs) > 0 {
		h := Hop{From: sw, FromPort: port, To: to, ToPort: toPort}
		if l.worker {
			n.obsMu.Lock()
		}
		for _, ob := range n.hopObs {
			ob(h, pkt, delivered)
		}
		if l.worker {
			n.obsMu.Unlock()
		}
	}
	if !delivered {
		pkt.Release()
		return
	}
	at := l.sim.now + link.Delay
	ev := event{kind: evProcess, sw: to, port: toPort, pkt: pkt}
	switch {
	case l.worker:
		if d := n.shardOf[to]; d != l.id {
			// Cross-shard delivery: buffered, exchanged at the barrier.
			// Conservative windows guarantee at >= the window end, so the
			// receiver has not advanced past it.
			if st := l.sim.stats; st != nil {
				st.CutMsgs++
			}
			l.out[d] = append(l.out[d], xev{at: at, kind: evProcess, sw: to, port: toPort, pkt: pkt})
			return
		}
		l.sim.schedule(at, ev)
	case n.multi:
		// Control lane at a barrier (packet-outs, injections): workers are
		// parked, so delivering straight into the owner's heap is safe.
		n.lanes[n.shardOf[to]].sim.schedule(at, ev)
	default:
		l.sim.schedule(at, ev)
	}
}

// decoderFor returns the decoder of an EtherType, or nil. The last hit is
// cached per lane: traversals send long runs of one type, so the common
// case is a single comparison, like the in-band accounting intern table.
func (l *lane) decoderFor(eth uint16) *TagDecoder {
	dec := l.net.tagDec
	if i := l.lastDec; i < len(dec) && dec[i].eth == eth {
		return dec[i]
	}
	for i, d := range dec {
		if d.eth == eth {
			l.lastDec = i
			return d
		}
	}
	return nil
}

// runWindow drains the lane's heap up to (but excluding) simulation time
// end, processing at most budget events, and leaves the count in
// wprocessed and the wall time in busyNs: the window driver of lane.step.
// Worker heaps only ever hold evProcess events — dispatch routes
// everything else through the control lane, the only one allowed to touch
// shared state.
func (l *lane) runWindow(end Time, budget int) {
	//simlint:ignore determinism: wall-clock window timing feeds telemetry only, never the sim
	t0 := time.Now()
	s := &l.sim
	processed := 0
	for len(s.events) > 0 && processed < budget && s.events[0].at < end {
		if s.events[0].kind != evProcess {
			panic("network: non-process event on a worker lane")
		}
		processed += l.step(budget - processed)
	}
	l.wprocessed = processed
	//simlint:ignore determinism: wall-clock window timing feeds telemetry only, never the sim
	l.busyNs = time.Since(t0).Nanoseconds()
}

// A waiting lane polls, yields every spinYield polls (so GOMAXPROCS=1
// still progresses) and parks after spinPark polls (so a long serial
// stretch on the coordinator burns no CPU). A window is tens of µs of hop
// work; a channel wake costs ~9 µs on a 2-vCPU VM, a spin under 1.
const spinYield, spinPark = 1 << 7, 1 << 15

// serve is the goroutine of a worker lane: it runs every window posted
// after epoch seen until a negative budget stops it, storing each
// window's epoch into done when it finishes.
func (l *lane) serve(seen uint64) {
	for {
		seen = l.await(seen)
		if l.budget < 0 {
			l.done.Store(seen)
			return
		}
		l.runWindow(l.end, l.budget)
		l.done.Store(seen)
	}
}

// await returns the first epoch posted after seen. Parking is lost-wakeup
// safe: the lane raises parked, then re-reads the epoch; post bumps the
// epoch, then claims parked. Whoever clears parked owns the wake.
func (l *lane) await(seen uint64) uint64 {
	for i := 1; ; i++ {
		if e := l.epoch.Load(); e != seen {
			return e
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
		if i == spinPark {
			l.parked.Store(true)
			if l.epoch.Load() == seen || !l.parked.CompareAndSwap(true, false) {
				<-l.wake
			}
			i = 0
		}
	}
}

// post hands the lane's goroutine one window (a negative budget stops it),
// waking the goroutine if it parked.
func (l *lane) post(end Time, budget int) {
	l.end, l.budget = end, budget
	l.epoch.Add(1)
	if l.parked.CompareAndSwap(true, false) {
		l.wake <- struct{}{}
	}
}

// join spins until the lane's goroutine has acknowledged its last post.
// The coordinator never parks: it only ever waits out a running window.
func (l *lane) join() {
	for i := 1; l.done.Load() != l.epoch.Load(); i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// runSharded is the multi-shard event loop: a conservative time-window
// coordinator over the worker lanes. Each iteration either executes one
// due control event (serially, with workers parked) or opens a window
// [tMin, W) — W = tMin + lookahead, capped at the next control event —
// and lets every worker with due events drain it concurrently. Because
// the lookahead is the minimum cross-shard link delay, a packet sent
// during a window arrives no earlier than the window end, so no shard
// ever receives an event in its past. At the barrier, buffered
// cross-shard deliveries are merged deterministically: concatenated in
// source-lane order and stable-sorted by timestamp, so the receiving
// heap assigns the same sequence numbers for any interleaving of the
// worker goroutines.
//
// The coordinator runs shard 0's window itself while the other lanes'
// goroutines run theirs, then spins until each is done: a window costs a
// few atomic operations, and a goroutine wake only for a parked lane.
//
//simlint:barrier the coordinator: touches lane state only while every worker is parked between windows
func (n *Network) runSharded() (int, error) {
	limit := n.Sim.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	workers := n.lanes[: len(n.lanes)-1 : len(n.lanes)-1]
	for _, l := range workers[1:] {
		l.wake = make(chan struct{}, 1)
		go l.serve(l.epoch.Load())
	}
	defer func() {
		for _, l := range workers[1:] {
			l.join() // a panic may have left a window running
			l.post(0, -1)
			l.join()
		}
	}()

	processed := 0
	var err error
	for {
		// The global frontier: the earliest pending event anywhere.
		tMin := maxTime
		any := false
		for _, l := range n.lanes {
			if len(l.sim.events) > 0 {
				if t := l.sim.events[0].at; !any || t < tMin {
					tMin, any = t, true
				}
			}
		}
		if !any {
			break
		}
		if processed >= limit {
			err = ErrEventLimit{Steps: processed}
			break
		}
		// Control events at the frontier run first, one at a time — each
		// may mutate shared state or schedule new work anywhere, so the
		// frontier is recomputed after every step. They run here, with
		// every worker parked, so they may touch shared state freely:
		// controller callbacks (which install rules and inject packets),
		// scheduled link failures, packet-outs. The control lane owns no
		// switches, so arrivals normally never land on it; step processes
		// a stray one like any other rather than dropping the packet.
		if cs := &n.ctl.sim; len(cs.events) > 0 && cs.events[0].at <= tMin {
			processed += n.ctl.step(1)
			continue
		}
		w := tMin + n.lookahead
		if w <= tMin {
			w = maxTime // lookahead overflowed the clock; window is unbounded
		}
		if cs := &n.ctl.sim; len(cs.events) > 0 && cs.events[0].at < w {
			// Never run a worker past a pending control action: it could
			// change link modes or tables the worker would observe.
			w = cs.events[0].at
		}
		budget := limit - processed
		cst := n.ctl.sim.stats
		var wt0 time.Time
		if cst != nil {
			//simlint:ignore determinism: wall-clock barrier timing feeds telemetry only, never the sim
			wt0 = time.Now()
		}
		for _, l := range workers[1:] {
			if len(l.sim.events) > 0 && l.sim.events[0].at < w {
				l.post(w, budget)
			}
		}
		if l := workers[0]; len(l.sim.events) > 0 && l.sim.events[0].at < w {
			l.runWindow(w, budget)
		}
		for _, l := range workers[1:] {
			l.join()
		}
		if cst != nil {
			// Window accounting runs on the coordinator with every worker
			// parked, staged into the control lane's Counters like every
			// other counter. A lane was active iff it processed something
			// (it got a window iff its head event was inside it, and a
			// window always drains at least one event); its stall is the
			// gap between its own busy time and the wall span of the whole
			// barrier — the time it idled waiting for the slowest lane.
			//simlint:ignore determinism: wall-clock barrier timing feeds telemetry only, never the sim
			barrierNs := time.Since(wt0).Nanoseconds()
			cst.Windows++
			if w != maxTime {
				cst.WindowSimNs.Observe(int64(w - tMin))
			}
			var maxBusy int64
			for _, l := range workers {
				if l.wprocessed == 0 {
					continue
				}
				cst.LaneWindows++
				cst.LaneBusyNs += uint64(l.busyNs)
				if l.busyNs > maxBusy {
					maxBusy = l.busyNs
				}
				if stall := barrierNs - l.busyNs; stall > 0 {
					cst.BarrierStallNs.Observe(stall)
				}
			}
			cst.LaneBusyMaxNs += uint64(maxBusy)
		}
		for _, l := range workers {
			processed += l.wprocessed
			l.wprocessed = 0
			l.busyNs = 0
		}
		n.mergeWindow(workers)
	}

	if err == nil {
		// Align every lane clock to the latest one so Sim.Now() (the
		// control lane) reports the end of the run.
		end := n.ctl.sim.now
		for _, l := range workers {
			if l.sim.now > end {
				end = l.sim.now
			}
		}
		for _, l := range n.lanes {
			l.sim.now = end
		}
	}
	return processed, err
}

// mergeWindow exchanges the events buffered during one window: for each
// destination lane, the outboxes of every source lane are concatenated in
// lane order and stable-sorted by timestamp before scheduling, so the
// destination assigns sequence numbers in an order independent of how the
// worker goroutines interleaved.
//
//simlint:barrier runs at the window barrier with all workers parked
func (n *Network) mergeWindow(workers []*lane) {
	cst := n.ctl.sim.stats
	for d := range workers {
		buf := n.mergeBuf[:0]
		for _, src := range workers {
			o := src.out[d]
			buf = append(buf, o...)
			for i := range o {
				o[i] = xev{}
			}
			src.out[d] = o[:0]
		}
		if cst != nil && len(buf) > 0 {
			// Only non-empty merges are observed: the count of staged
			// deliveries is deterministic, and all-zero samples from idle
			// destinations would drown the distribution.
			cst.StagedDepth.Observe(int64(len(buf)))
		}
		n.scheduleMerged(&workers[d].sim, buf)
	}
	buf := n.mergeBuf[:0]
	for _, src := range workers {
		buf = append(buf, src.ctlOut...)
		for i := range src.ctlOut {
			src.ctlOut[i] = xev{}
		}
		src.ctlOut = src.ctlOut[:0]
	}
	if cst != nil && len(buf) > 0 {
		cst.StagedDepth.Observe(int64(len(buf)))
	}
	n.scheduleMerged(&n.ctl.sim, buf)
}

// scheduleMerged stable-sorts one destination's merged buffer by
// timestamp and schedules it, then scrubs the scratch so it does not pin
// packets.
func (n *Network) scheduleMerged(s *Sim, buf []xev) {
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].at < buf[j].at })
	for i := range buf {
		x := &buf[i]
		s.schedule(x.at, event{kind: x.kind, sw: x.sw, port: x.port, pkt: x.pkt})
		*x = xev{}
	}
	n.mergeBuf = buf[:0]
}
