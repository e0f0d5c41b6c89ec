package openflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refLookup is the reference semantics of Lookup: first match over the
// full entry list, which FlowTable keeps in (priority desc, insertion
// asc) order. The compiled matcher must agree with it on every packet.
func refLookup(t *FlowTable, p *Packet) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Matches(p) {
			return e
		}
	}
	return nil
}

// fuzzCfg shapes one random-table population so the generator can aim at
// specific matcher paths: small vs spilled EtherType sets, small-array vs
// map value splits, masked criteria that are forced onto residual lists,
// port-wildcard entries that get merged into every named port's node.
type fuzzCfg struct {
	name      string
	eths      int // distinct EtherTypes in play
	ports     int // distinct exact ingress ports in play
	entries   int
	values    int     // cardinality of the keyed field's values
	pWildEth  float64 // probability an entry wildcards the EtherType
	pWildPort float64 // probability an entry wildcards the ingress port
	pMasked   float64 // probability a field criterion is masked
	pTTL      float64 // probability an entry constrains the TTL
	pField2   float64 // probability of a second field criterion
}

var fuzzCfgs = []fuzzCfg{
	// The compiled-program shape: one service EtherType, port-keyed
	// entries over a low-cardinality state byte → small splits.
	{name: "compiled-shape", eths: 1, ports: 4, entries: 24, values: 5,
		pWildPort: 0.2, pField2: 0.5},
	// Enough distinct values to spill the split into the vals map.
	{name: "map-split", eths: 2, ports: 3, entries: 60, values: 40,
		pWildPort: 0.2, pField2: 0.3},
	// Enough EtherTypes to spill the matcher's eth index into a map.
	{name: "eth-spill", eths: smallEthMax + 8, ports: 2, entries: 120,
		values: 4, pWildPort: 0.3, pField2: 0.3},
	// Adversarial soup: wildcards, masks and TTL constraints everywhere,
	// exercising the wild list, the residual lists and the residTop skip.
	{name: "soup", eths: 3, ports: 4, entries: 80, values: 6,
		pWildEth: 0.15, pWildPort: 0.4, pMasked: 0.3, pTTL: 0.2, pField2: 0.6},
}

var fuzzFields = []Field{
	{Name: "S", Off: 0, Bits: 8},
	{Name: "C", Off: 8, Bits: 6},
	{Name: "W", Off: 14, Bits: 10},
}

func randMatch(r *rand.Rand, cfg fuzzCfg) Match {
	m := MatchAll()
	if r.Float64() >= cfg.pWildEth {
		m.EthType = 0x8800 + r.Intn(cfg.eths)
	}
	if r.Float64() >= cfg.pWildPort {
		m.InPort = 1 + r.Intn(cfg.ports)
	}
	if r.Float64() < cfg.pTTL {
		m.TTL = r.Intn(4)
	}
	nf := 1
	if r.Float64() < cfg.pField2 {
		nf = 2
	}
	for i := 0; i < nf; i++ {
		f := fuzzFields[(r.Intn(len(fuzzFields)))]
		fm := FieldMatch{F: f, Value: uint64(r.Intn(cfg.values))}
		if r.Float64() < cfg.pMasked {
			fm.Mask = uint64(r.Intn(int(f.Max()))) | 1
			fm.Value = uint64(r.Int63()) & fm.Mask
		}
		m.Fields = append(m.Fields, fm)
	}
	return m
}

func randFuzzTable(r *rand.Rand, cfg fuzzCfg) *FlowTable {
	t := &FlowTable{ID: 0}
	for i := 0; i < cfg.entries; i++ {
		t.Add(&FlowEntry{
			Priority: r.Intn(5), // deliberately collision-heavy
			Match:    randMatch(r, cfg),
			Cookie:   fmt.Sprintf("e%d", i),
			Goto:     NoGoto,
		})
	}
	return t
}

func randFuzzPacket(r *rand.Rand, cfg fuzzCfg) *Packet {
	p := NewPacket(uint16(0x8800+r.Intn(cfg.eths+1)), 3)
	p.InPort = 1 + r.Intn(cfg.ports+2) // sometimes a port no entry names
	p.TTL = uint8(r.Intn(5))
	r.Read(p.Tag)
	for _, f := range fuzzFields {
		if r.Intn(2) == 0 {
			p.Store(f, uint64(r.Intn(cfg.values)))
		}
	}
	return p
}

// TestMatcherDifferentialFuzz replays random packets through the
// compiled matcher and the reference linear scan on randomly generated
// tables, asserting both pick the same entry — including priority ties,
// where insertion order decides.
func TestMatcherDifferentialFuzz(t *testing.T) {
	for _, cfg := range fuzzCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 16; seed++ {
				r := rand.New(rand.NewSource(seed))
				ft := randFuzzTable(r, cfg)
				ft.Compile()
				if !ft.Compiled() {
					t.Fatalf("seed %d: table not compiled", seed)
				}
				for i := 0; i < 500; i++ {
					p := randFuzzPacket(r, cfg)
					if got, want := ft.Lookup(p), refLookup(ft, p); got != want {
						t.Fatalf("seed %d pkt %d: matcher chose %v, reference %v (pkt eth=%#x in=%d ttl=%d tag=%x)",
							seed, i, got, want, p.EthType, p.InPort, p.TTL, p.Tag)
					}
				}
				if st := ft.ScanStats(); st.MatcherLookups != 500 || st.FallbackLookups != 0 {
					t.Fatalf("seed %d: a compiled table must serve every lookup from the matcher, got %+v", seed, st)
				}
			}
		})
	}
}

// FuzzLookupMatchesLinear interleaves table mutations with lookups: each
// byte of ops picks one of Add, AddBatch, RemoveIf, Clear or an explicit
// Compile, and a burst of random packets follows every one. Lookup must
// agree with the linear reference throughout, and must count a lookup as
// a fallback exactly when the mutation before it left the table without a
// matcher — the inline-compile path.
func FuzzLookupMatchesLinear(f *testing.F) {
	for shape := range fuzzCfgs {
		f.Add(uint8(shape), int64(shape), []byte{0, 1, 2, 4, 0, 3, 1, 2})
		f.Add(uint8(shape), int64(shape)+7, []byte{1, 1, 4, 2, 2, 0, 4, 3, 0})
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, ops []byte) {
		cfg := fuzzCfgs[int(shape)%len(fuzzCfgs)]
		cfg.entries /= 4 // the ops grow the table from a small start
		r := rand.New(rand.NewSource(seed))
		ft := randFuzzTable(r, cfg)
		next := ft.Len()
		mk := func() *FlowEntry {
			next++
			return &FlowEntry{Priority: r.Intn(5), Match: randMatch(r, cfg),
				Cookie: fmt.Sprintf("e%d", next), Goto: NoGoto}
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for step, op := range ops {
			switch op % 5 {
			case 0:
				ft.Add(mk())
			case 1:
				es := make([]*FlowEntry, 2+r.Intn(6))
				for i := range es {
					es[i] = mk()
				}
				ft.AddBatch(es)
			case 2:
				prio := r.Intn(5)
				ft.RemoveIf(func(e *FlowEntry) bool { return e.Priority == prio && e.Cookie[len(e.Cookie)-1]%2 == 0 })
			case 3:
				ft.Clear()
			case 4:
				ft.Compile()
			}
			for i := 0; i < 8; i++ {
				compiled := ft.Compiled()
				before := ft.ScanStats()
				p := randFuzzPacket(r, cfg)
				if got, want := ft.Lookup(p), refLookup(ft, p); got != want {
					t.Fatalf("step %d (op %d) pkt %d: Lookup chose %v, reference %v (pkt eth=%#x in=%d ttl=%d tag=%x)",
						step, op%5, i, got, want, p.EthType, p.InPort, p.TTL, p.Tag)
				}
				after := ft.ScanStats()
				inline := after.FallbackLookups - before.FallbackLookups
				if after.Lookups() != before.Lookups()+1 || (inline == 1) == compiled || !ft.Compiled() {
					t.Fatalf("step %d (op %d) pkt %d: compiled=%v before the lookup, stats %+v -> %+v",
						step, op%5, i, compiled, before, after)
				}
			}
		}
	})
}

// TestMatcherPackedBackToBack pins the physical layout the sizing pass
// promises: every reduced entry and every residual criterion of a table
// sits in one exactly-sized block, in walk order — the wildcard list,
// then per node the residual list and the keyed lists in key order — so
// a lookup's pointer chases stay inside a few contiguous allocations.
func TestMatcherPackedBackToBack(t *testing.T) {
	for _, cfg := range fuzzCfgs {
		ft := randFuzzTable(rand.New(rand.NewSource(3)), cfg)
		ft.Compile()
		m := ft.cur
		// Addresses are compared as integers: a pointer one past the end of
		// an allocation must not be kept where the collector can see it.
		var nextEnt, nextCrit uintptr
		entries := 0
		walk := func(where string, l mList) {
			if len(l) == 0 {
				return
			}
			if at := uintptr(unsafe.Pointer(&l[0])); nextEnt != 0 && at != nextEnt {
				t.Fatalf("%s/%s: list does not start where the previous one ended", cfg.name, where)
			}
			if cap(l) != len(l) {
				t.Fatalf("%s/%s: list has spare capacity %d", cfg.name, where, cap(l)-len(l))
			}
			for i := range l {
				if x := l[i].extra; len(x) > 0 {
					if at := uintptr(unsafe.Pointer(&x[0])); nextCrit != 0 && at != nextCrit {
						t.Fatalf("%s/%s: entry %d's criteria are out of sequence", cfg.name, where, i)
					}
					nextCrit = uintptr(unsafe.Pointer(&x[0])) + uintptr(len(x))*unsafe.Sizeof(crit{})
				}
			}
			entries += len(l)
			nextEnt = uintptr(unsafe.Pointer(&l[0])) + uintptr(len(l))*unsafe.Sizeof(mEntry{})
		}
		walk("wild", m.wild)
		for _, en := range m.eths {
			nodes := append([]*mNode(nil), en.pvec...)
			if en.any != nil {
				nodes = append(nodes, en.any)
			}
			for ni, nd := range nodes {
				where := fmt.Sprintf("eth%#x/node%d", en.eth, ni)
				walk(where+"/resid", nd.resid)
				for _, l := range nd.lists {
					walk(where+"/keyed", l)
				}
				keys := make([]uint64, 0, len(nd.vals))
				for k := range nd.vals {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for _, k := range keys {
					walk(where+"/mapped", nd.vals[k])
				}
			}
		}
		if entries < ft.Len() {
			t.Fatalf("%s: walked %d reduced entries for %d flow entries", cfg.name, entries, ft.Len())
		}
	}
}

// TestMatcherObservesMutation pins the matcher lifecycle: a mutation
// drops the matcher, the next Lookup rebuilds it on the spot — seeing the
// edit, counted once as a fallback — and the lookups after that are back
// on the matcher with no further compile.
func TestMatcherObservesMutation(t *testing.T) {
	ft := &FlowTable{ID: 0}
	mk := func(prio int, cookie string) *FlowEntry {
		m := MatchEth(0x8801)
		m.InPort = 1
		return &FlowEntry{Priority: prio, Match: m, Cookie: cookie, Goto: NoGoto}
	}
	p := NewPacket(0x8801, 2)
	p.InPort = 1
	var want ScanStats
	check := func(stage string, wantEntry *FlowEntry, inline bool) {
		t.Helper()
		if inline == ft.Compiled() {
			t.Fatalf("%s: Compiled() = %v before the lookup", stage, ft.Compiled())
		}
		if got := ft.Lookup(p); got != wantEntry {
			t.Fatalf("%s: got %v, want %v", stage, got, wantEntry)
		}
		if inline {
			want.FallbackLookups++
		} else {
			want.MatcherLookups++
		}
		want.Scanned = ft.ScanStats().Scanned
		if st := ft.ScanStats(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", stage, st, want)
		}
		if !ft.Compiled() {
			t.Fatalf("%s: table left without a matcher after a lookup", stage)
		}
	}

	a := mk(1, "a")
	ft.Add(a)
	ft.Compile()
	check("compiled", a, false)

	// Higher-priority add: the next lookup must see it.
	b := mk(2, "b")
	ft.Add(b)
	check("first lookup after Add", b, true)
	m := ft.cur
	check("second lookup after Add", b, false)
	check("third lookup after Add", b, false)
	if ft.cur != m {
		t.Fatal("matcher rebuilt again without a mutation")
	}

	// Removal through the same lifecycle.
	if n := ft.RemoveByCookiePrefix("b"); n != 1 {
		t.Fatalf("removed %d entries, want 1", n)
	}
	check("first lookup after removal", a, true)
	check("second lookup after removal", a, false)

	// A batch add and a clear drop the matcher too.
	c := mk(3, "c")
	ft.AddBatch([]*FlowEntry{c, mk(3, "d")})
	check("first lookup after AddBatch", c, true)
	ft.Clear()
	check("first lookup after Clear", nil, true)
	check("second lookup after Clear", nil, false)
}

// TestCompileDispatchRecompilesStaleTablesOnly pins the switch-level seam
// the install path uses: one CompileDispatch call leaves every table
// compiled, and rebuilds the matcher of exactly the tables the
// transaction wrote to — a group-only program rebuilds none.
func TestCompileDispatchRecompilesStaleTablesOnly(t *testing.T) {
	sw := NewSwitch(0, 4)
	for id := 0; id < 3; id++ {
		m := MatchEth(uint16(0x8800 + id))
		sw.Table(id).Add(&FlowEntry{Priority: 1, Match: m, Cookie: fmt.Sprintf("t%d", id), Goto: NoGoto})
	}
	matchers := func() [3]*matcher {
		var ms [3]*matcher
		for id := range ms {
			if !sw.Table(id).Compiled() {
				t.Fatalf("table %d not compiled after CompileDispatch", id)
			}
			ms[id] = sw.Table(id).cur
		}
		return ms
	}
	sw.CompileDispatch()
	first := matchers()

	sw.Table(1).Add(&FlowEntry{Priority: 2, Match: MatchEth(0x8801), Cookie: "new", Goto: NoGoto})
	if sw.Table(1).Compiled() {
		t.Fatal("table 1 matcher still current after mutation")
	}
	sw.CompileDispatch()
	second := matchers()
	for id := range second {
		if rebuilt := second[id] != first[id]; rebuilt != (id == 1) {
			t.Errorf("after mutating table 1: table %d rebuilt = %v", id, rebuilt)
		}
	}
	p := NewPacket(0x8801, 2)
	if got := sw.Table(1).Lookup(p); got == nil || got.Cookie != "new" {
		t.Fatalf("recompiled table 1 serves %v, want the new entry", got)
	}

	groupsOnly := &SwitchProgram{Switch: 0, NumPorts: 4, Groups: []*GroupEntry{
		{ID: 7, Type: GroupIndirect, Buckets: []Bucket{{Actions: []Action{Output{Port: 1}}}}},
	}}
	groupsOnly.Materialize(sw)
	sw.CompileDispatch()
	if third := matchers(); third != second {
		t.Error("a group-only program rebuilt a flow-table matcher")
	}
	if sw.GroupByID(7) == nil {
		t.Error("group-only program did not install its group")
	}
}

// TestCompiledMatchersOutliveLaterCompiles compiles many tables through
// one compile scratch (one CompileDispatch) and only then checks each
// against the linear reference: nothing a matcher keeps may alias the
// scratch, which every later compile overwrites.
func TestCompiledMatchersOutliveLaterCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sw := NewSwitch(0, 8)
	const tables = 24
	for id := 0; id < tables; id++ {
		sw.Table(id).AddBatch(randFuzzTable(r, fuzzCfgs[id%len(fuzzCfgs)]).entries)
	}
	sw.CompileDispatch()
	for id := 0; id < tables; id++ {
		cfg, ft := fuzzCfgs[id%len(fuzzCfgs)], sw.Table(id)
		for i := 0; i < 300; i++ {
			p := randFuzzPacket(r, cfg)
			if got, want := ft.Lookup(p), refLookup(ft, p); got != want {
				t.Fatalf("table %d (%s) pkt %d: matcher chose %v, reference %v (pkt eth=%#x in=%d ttl=%d tag=%x)",
					id, cfg.name, i, got, want, p.EthType, p.InPort, p.TTL, p.Tag)
			}
		}
		if st := ft.ScanStats(); st.FallbackLookups != 0 {
			t.Fatalf("table %d: %d lookups compiled their matcher inline", id, st.FallbackLookups)
		}
	}
}
