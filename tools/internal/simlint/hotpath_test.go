package simlint

import "testing"

func hotLint(t *testing.T, src string) []string {
	t.Helper()
	return lint(t, []string{AnalyzerHotpath}, src)
}

func TestHotpathDirectAllocations(t *testing.T) {
	got := hotLint(t, `package x

//simlint:hotpath
func Exec(n int) []int {
	buf := make([]int, n)
	p := new(int)
	_ = p
	m := map[int]int{}
	_ = m
	return buf
}`)
	wantDiags(t, got,
		`fixture.go:5:9: [hotpath] heap allocation (make) in hot path Exec`,
		`fixture.go:6:7: [hotpath] heap allocation (new) in hot path Exec`,
		`fixture.go:8:7: [hotpath] heap allocation (map literal) in hot path Exec`)
}

func TestHotpathStatements(t *testing.T) {
	got := hotLint(t, `package x

//simlint:hotpath
func Exec(m map[int]int, f func()) {
	defer f()
	go f()
	for k := range m {
		_ = k
	}
}`)
	wantDiags(t, got,
		`fixture.go:5:2: [hotpath] defer in hot path Exec`,
		`fixture.go:6:2: [hotpath] go statement in hot path Exec`,
		`fixture.go:7:2: [hotpath] range over map in hot path Exec`)
}

// TestHotpathTransitive: the check recurses through same-package
// callees; the diagnostic lands on the offending op with the call chain
// in the message.
func TestHotpathTransitive(t *testing.T) {
	got := hotLint(t, `package x

type T struct{ n int }

//simlint:hotpath
func (t *T) Exec() { t.helper() }

func (t *T) helper() {
	_ = make([]byte, t.n)
}`)
	wantDiags(t, got,
		`fixture.go:9:6: [hotpath] heap allocation (make) in hot path T.Exec -> T.helper`)
}

// TestHotpathBoxingAndDynamic: interface boxing at call arguments and
// dynamic calls are flagged; so is the un-fact-ed cross-package call
// that performs them.
func TestHotpathBoxingAndDynamic(t *testing.T) {
	got := hotLint(t, `package x

import "fmt"

type doer interface{ Do() }

//simlint:hotpath
func Exec(d doer, v int) {
	fmt.Sprintf("%d", v)
	d.Do()
}`)
	wantDiags(t, got,
		`fixture.go:9:2: [hotpath] call to fmt.Sprintf (no allocation facts, not allowlisted) in hot path Exec`,
		`fixture.go:9:20: [hotpath] interface boxing of argument in hot path Exec`,
		`fixture.go:10:2: [hotpath] dynamic call (interface method or function value) in hot path Exec`)
}

// TestHotpathCleanOps: the sanctioned steady-state shapes pass — append
// (amortized growth), bare struct literals, &ident, map reads/writes,
// allowlisted atomics, and calls to other annotated hot functions.
func TestHotpathCleanOps(t *testing.T) {
	got := hotLint(t, `package x

import "sync/atomic"

type rec struct{ a, b int }

var n atomic.Int64

//simlint:hotpath
func Step(r *rec) { r.a++ }

//simlint:hotpath
func Exec(buf []rec, m map[int]int) []rec {
	buf = append(buf, rec{a: 1})
	r := rec{a: 2, b: 3}
	p := &r
	Step(p)
	m[1] = m[2]
	n.Add(1)
	return buf
}`)
	wantDiags(t, got)
}

// TestHotpathColdGuards: bodies guarded by the hoisted record flag are
// the documented observed-run path and exempt, as is an if annotated
// //simlint:cold.
func TestHotpathColdGuards(t *testing.T) {
	got := hotLint(t, `package x

type ctx struct {
	record bool
	slow   bool
	log    []string
}

//simlint:hotpath
func Exec(x *ctx) {
	if x.record {
		x.log = append(x.log, string(rune(42)))
	}
	//simlint:cold
	if x.slow {
		_ = make([]byte, 1)
	}
}`)
	wantDiags(t, got)
}

// TestHotpathIgnore: the escape hatch works per line with a reason.
func TestHotpathIgnore(t *testing.T) {
	got := hotLint(t, `package x

//simlint:hotpath
func Exec(n int) []byte {
	//simlint:ignore hotpath: scratch grows once then steady-state reuses it
	return make([]byte, n)
}`)
	wantDiags(t, got)
}

// TestHotpathStringOps: concatenation and allocating conversions.
func TestHotpathStringOps(t *testing.T) {
	got := hotLint(t, `package x

//simlint:hotpath
func Exec(a, b string, raw []byte) string {
	s := a + b
	t := string(raw)
	return s + t
}`)
	wantDiags(t, got,
		`fixture.go:5:7: [hotpath] string concatenation in hot path Exec`,
		`fixture.go:6:7: [hotpath] allocating string conversion in hot path Exec`,
		`fixture.go:7:9: [hotpath] string concatenation in hot path Exec`)
}

// TestHotpathCompositeAddress: &T{} escapes.
func TestHotpathCompositeAddress(t *testing.T) {
	got := hotLint(t, `package x

type node struct{ next *node }

//simlint:hotpath
func Exec() *node {
	return &node{}
}`)
	wantDiags(t, got,
		`fixture.go:7:9: [hotpath] heap allocation (&composite literal) in hot path Exec`)
}

// TestHotpathFuncLit: closures allocate; their bodies run elsewhere and
// are not double-reported.
func TestHotpathFuncLit(t *testing.T) {
	got := hotLint(t, `package x

//simlint:hotpath
func Exec() func() []byte {
	return func() []byte { return make([]byte, 1) }
}`)
	wantDiags(t, got,
		`fixture.go:5:9: [hotpath] heap allocation (func literal) in hot path Exec`)
}

// TestHotpathSpanClaimFill models the span-record path in the sharded
// engine: the hot batch loop claims pre-allocated ring slots and fills
// them in place, which must lint clean even though the claim helper
// zeroes and hands back a pointer. The naive variant that materializes
// a record per packet is the regression the annotation exists to catch.
func TestHotpathSpanClaimFill(t *testing.T) {
	got := hotLint(t, `package x

type span struct {
	id, parent uint64
	at         int64
}

type ring struct {
	buf  []span
	head uint64
}

func (r *ring) slot() *span {
	s := &r.buf[r.head&uint64(len(r.buf)-1)]
	r.head++
	*s = span{}
	return s
}

//simlint:hotpath
func Exec(r *ring, ids []uint64, at int64) {
	for _, id := range ids {
		s := r.slot()
		s.id = id
		s.at = at
	}
}

//simlint:hotpath
func ExecAlloc(ids []uint64, at int64) []*span {
	out := make([]*span, 0, len(ids))
	for _, id := range ids {
		out = append(out, &span{id: id, at: at})
	}
	return out
}`)
	wantDiags(t, got,
		`fixture.go:31:9: [hotpath] heap allocation (make) in hot path ExecAlloc`,
		`fixture.go:33:21: [hotpath] heap allocation (&composite literal) in hot path ExecAlloc`)
}
