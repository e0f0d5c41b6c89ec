package network

import "math/rand"

// LinkMode describes the health of one direction of a link.
type LinkMode int

const (
	// LinkUp delivers packets normally.
	LinkUp LinkMode = iota
	// LinkDown delivers nothing and is *visible* to port liveness: the
	// fast-failover groups on both endpoints skip the port.
	LinkDown
	// LinkBlackhole silently drops every packet while liveness still
	// reports the port as up — the paper's silent failure.
	LinkBlackhole
	// LinkLossy drops each packet independently with probability
	// LossProb, liveness up.
	LinkLossy
)

func (m LinkMode) String() string {
	switch m {
	case LinkUp:
		return "up"
	case LinkDown:
		return "down"
	case LinkBlackhole:
		return "blackhole"
	case LinkLossy:
		return "lossy"
	}
	return "?"
}

// DirStats counts traffic for one direction of a link; this is the
// simulator's ground truth that tests compare smart-counter readings
// against.
type DirStats struct {
	Sent      int // handed to the link by the transmitter
	Delivered int // arrived at the receiver
	Dropped   int // swallowed (blackhole or loss)
}

// Link is one undirected link between (A, PortA) and (B, PortB) with
// independent per-direction failure modes.
type Link struct {
	A, B         int // switch IDs
	PortA, PortB int
	Delay        Time

	// Per-direction loss rngs: each direction is drawn only by the shard
	// that owns its transmitting endpoint, so a sharded run never has two
	// goroutines sharing one generator.
	modeAB, modeBA LinkMode
	lossAB, lossBA float64
	rngAB, rngBA   lossRNG

	// StatsAB counts the A-to-B direction, StatsBA the reverse.
	StatsAB, StatsBA DirStats
}

// lossRNG is one direction's loss generator. Only its seed is fixed when
// the network is built; the generator itself (a 607-word state and the
// seeding loop that fills it) is constructed on the direction's first
// lossy draw, which most links never make. The draw sequence is the one
// an eagerly seeded generator would produce.
type lossRNG struct {
	seed int64
	r    *rand.Rand
}

func (g *lossRNG) Float64() float64 {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r.Float64()
}

// dir resolves the transmit side: given the transmitting switch, the
// relevant mode, loss probability, stats, loss generator and the
// receiving (switch, port).
func (l *Link) dir(from int) (mode *LinkMode, loss *float64, st *DirStats, rng *lossRNG, to, toPort int) {
	if from == l.A {
		return &l.modeAB, &l.lossAB, &l.StatsAB, &l.rngAB, l.B, l.PortB
	}
	return &l.modeBA, &l.lossBA, &l.StatsBA, &l.rngBA, l.A, l.PortA
}

// transmit decides the fate of one packet sent by switch `from`:
// delivered reports whether it reaches the far side.
func (l *Link) transmit(from int) (to, toPort int, delivered bool) {
	mode, loss, st, rng, to, toPort := l.dir(from)
	st.Sent++
	switch *mode {
	case LinkDown:
		st.Dropped++
		return to, toPort, false
	case LinkBlackhole:
		st.Dropped++
		return to, toPort, false
	case LinkLossy:
		if rng.Float64() < *loss {
			st.Dropped++
			return to, toPort, false
		}
	}
	st.Delivered++
	return to, toPort, true
}

// liveFor reports whether the port at switch `sw` should be considered
// live. Only LinkDown is visible to liveness: blackholes and lossy links
// look healthy, per the paper's failure model.
func (l *Link) liveFor() bool {
	return l.modeAB != LinkDown && l.modeBA != LinkDown
}
