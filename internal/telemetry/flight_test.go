package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The record path is memory traffic, so the ring entry's size is the
// recorder's cost: growing it past 80 bytes is a performance regression
// the overhead benchmark would only catch later and noisily. It must
// also stay pointer-free: a pointer field would put GC write barriers on
// every record store and the whole ring on the garbage collector's scan
// list.
func TestFlightRecordLayout(t *testing.T) {
	if s := unsafe.Sizeof(FlightRecord{}); s != 80 {
		t.Fatalf("FlightRecord is %d bytes, want 80", s)
	}
	if path := pointerField(reflect.TypeOf(FlightRecord{}), "FlightRecord"); path != "" {
		t.Fatalf("%s holds a pointer; the record must stay pointer-free", path)
	}
}

// pointerField returns the path of the first field of t that is or holds
// a pointer (pointer, slice, string, map, chan, interface, func), or "".
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.String, reflect.Slice, reflect.Map, reflect.Chan, reflect.Interface, reflect.Func, reflect.UnsafePointer:
		return path
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	}
	return ""
}

// snapshot copies the retained records, oldest first.
func snapshot(f *Flight) []FlightRecord {
	n := f.Len()
	out := make([]FlightRecord, n)
	for i := range out {
		out[i] = *f.last(n, i)
	}
	return out
}

func TestFlightRingWraparound(t *testing.T) {
	f := NewFlight(4, 0)
	for i := 0; i < 10; i++ {
		f.Record(FlightRecord{At: int64(i), Kind: FlightExec, Sw: int16(i)})
	}
	if f.Total() != 10 || f.Len() != 4 {
		t.Fatalf("total=%d len=%d", f.Total(), f.Len())
	}
	snap := snapshot(f)
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, r := range snap {
		if want := int16(6 + i); r.Sw != want {
			t.Fatalf("record %d: sw=%d want %d", i, r.Sw, want)
		}
	}
}

func TestFlightJSONL(t *testing.T) {
	f := NewFlight(8, 0)
	idx := f.RegisterTagNames([3]string{"start", "cur", ""})
	seq := f.Total()
	*f.Slot() = FlightRecord{
		At: 1000, Kind: FlightExec, Sw: 3, Port: 2, Eth: 0x0901, Matched: true,
		NumTags: 2, NameIdx: idx,
		Tags: [3]uint32{1, 4},
	}
	f.SetCookie(seq, "snapshot")
	f.Record(FlightRecord{At: 1001, Kind: FlightSend, Sw: 3, Port: 1, To: 4, ToPort: 2, Eth: 0x0901})
	f.Record(FlightRecord{At: 1002, Kind: FlightNote, Sw: 0, Eth: 0x0901})

	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines, got %d:\n%s", len(lines), buf.String())
	}
	// Every line must be valid standalone JSON.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var decoded []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		decoded = append(decoded, m)
	}
	if decoded[0]["kind"] != "exec" || decoded[1]["kind"] != "send" || decoded[2]["kind"] != "note" {
		t.Fatalf("kinds wrong: %v", decoded)
	}
	for i, m := range decoded {
		if m["seq"] != float64(i) {
			t.Fatalf("line %d: seq %v, want %d", i, m["seq"], i)
		}
	}
	tags, ok := decoded[0]["tags"].([]any)
	if !ok || len(tags) != 2 {
		t.Fatalf("exec record must carry its 2 decoded tags, got %v", decoded[0]["tags"])
	}
	first := tags[0].(map[string]any)
	if first["name"] != "start" || first["val"] != float64(1) {
		t.Fatalf("tag decode %v", first)
	}
	if _, present := decoded[2]["tags"]; present {
		t.Fatal("untagged record must omit tags")
	}
}

// Sequence numbers survive ring wraparound: after evictions the dump
// starts at the oldest retained record's true sequence.
func TestFlightJSONLSeqAfterWraparound(t *testing.T) {
	f := NewFlight(4, 0)
	for i := 0; i < 11; i++ {
		f.Record(FlightRecord{At: int64(i), Kind: FlightExec, Sw: int16(i)})
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	want := uint64(7)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m["seq"] != float64(want) || m["sw"] != float64(want) {
			t.Fatalf("got seq=%v sw=%v, want %d", m["seq"], m["sw"], want)
		}
		want++
	}
	if want != 11 {
		t.Fatalf("dumped up to seq %d, want 11", want)
	}
}

// Cookies beyond the record's inline bytes (note text) round-trip through
// the record's slot, repeated or not, beside inline ones; a snapshot copy
// resolves while the ring retains its record and reads "?" once evicted.
func TestFlightLongCookieInterning(t *testing.T) {
	f := NewFlight(4, 0)
	long := "soak oracle divergence: snapshot root 5 saw 17 nodes"
	for i := 0; i < 3; i++ {
		seq := f.Total()
		f.Slot().Kind = FlightNote
		f.SetCookie(seq, long)
	}
	seq := f.Total()
	f.Slot().Kind = FlightExec
	f.SetCookie(seq, "svc8802/n7/done-p2")
	snap := snapshot(f)
	for i := 0; i < 3; i++ {
		if got := f.CookieString(&snap[i]); got != long {
			t.Fatalf("note %d: long cookie resolved to %q", i, got)
		}
	}
	if got := f.CookieString(&snap[3]); got != "svc8802/n7/done-p2" {
		t.Fatalf("inline cookie resolved to %q", got)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), long); got != 3 {
		t.Fatalf("dump holds the note text %d times, want 3:\n%s", got, buf.String())
	}
	f.Slot()
	if got := f.CookieString(&snap[0]); got != "?" {
		t.Fatalf("evicted note resolved to %q, want \"?\"", got)
	}
	if got := f.CookieString(&snap[1]); got != long {
		t.Fatalf("retained note resolved to %q", got)
	}
}

// TestFlightLongCookiesStayBounded records far more distinct long
// cookies than the ring holds: the retained records must resolve exactly
// and the recorder must keep no more cookies than records.
func TestFlightLongCookiesStayBounded(t *testing.T) {
	f := NewFlight(256, 0)
	const n = 100_000
	cookie := func(i int) string {
		return fmt.Sprintf("svc8802/n%d/ret-c1-p5%s", 1000+i%9000, strings.Repeat("x", i%10)) // 23..32 bytes
	}
	for i := 0; i < n; i++ {
		seq := f.Total()
		r := f.Slot()
		r.Kind, r.At = FlightExec, int64(i)
		f.SetCookie(seq, cookie(i))
	}
	snap := snapshot(f)
	if len(snap) != f.Cap() {
		t.Fatalf("retained %d records, want %d", len(snap), f.Cap())
	}
	for i := range snap {
		if got, want := f.CookieString(&snap[i]), cookie(int(snap[i].At)); got != want {
			t.Fatalf("record %d: cookie %q, want %q", snap[i].At, got, want)
		}
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	i := n - f.Cap()
	for ; sc.Scan(); i++ {
		var m struct {
			Cookie string `json:"cookie"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if want := cookie(i); m.Cookie != want {
			t.Fatalf("dumped record %d: cookie %q, want %q", i, m.Cookie, want)
		}
	}
	if i != n {
		t.Fatalf("dump ended at record %d, want %d", i, n)
	}
	kept := 0
	for _, s := range f.long {
		if s != "" {
			kept++
		}
	}
	if kept > f.Cap() || len(f.long) > f.Cap() {
		t.Fatalf("recorder keeps %d cookies in %d slots for a %d-record ring", kept, len(f.long), f.Cap())
	}
}

func TestFlightTagNameInterning(t *testing.T) {
	f := NewFlight(4, 0)
	a := f.RegisterTagNames([3]string{"start", "par", "cur"})
	b := f.RegisterTagNames([3]string{"x", "", ""})
	if again := f.RegisterTagNames([3]string{"start", "par", "cur"}); again != a {
		t.Fatalf("re-registration returned %d, want interned %d", again, a)
	}
	if a == b {
		t.Fatal("distinct name sets interned to the same index")
	}
	if got := f.names[b]; got[0] != "x" {
		t.Fatalf("names[%d] = %v", b, got)
	}
}

func TestFlightKindString(t *testing.T) {
	for k, want := range map[FlightKind]string{
		FlightExec: "exec", FlightSend: "send", FlightNote: "note",
	} {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}

// The ring's storage discipline: power-of-two capacity, cleared slots on
// recycle, oldest-first snapshots.
func TestFlightSlotRing(t *testing.T) {
	f := NewFlight(10, 0)
	if f.Cap() != 16 || f.DumpCap() != 16 {
		t.Fatalf("Cap()=%d DumpCap()=%d, want 16/16 (pow2 rounding of 10)", f.Cap(), f.DumpCap())
	}
	for i := 0; i < 20; i++ {
		r := f.Slot()
		r.SpanSeq = uint32(i + 1)
		r.At = int64(i)
	}
	if f.Total() != 20 || f.Len() != 16 {
		t.Fatalf("Total()=%d Len()=%d, want 20/16", f.Total(), f.Len())
	}
	for i, r := range snapshot(f) {
		if want := int64(i + 4); r.At != want {
			t.Fatalf("snapshot[%d].At = %d, want %d (oldest first)", i, r.At, want)
		}
	}
	if r := f.Slot(); *r != (FlightRecord{}) {
		t.Fatalf("recycled Slot() not cleared: %+v", *r)
	}
}

// The ring is as deep as the larger of the flight and timeline
// capacities; the dump depth is the flight capacity alone.
func TestFlightCapacities(t *testing.T) {
	for _, c := range []struct{ capacity, spans, ring, dump int }{
		{0, 0, DefaultFlightCap, DefaultFlightCap},
		{0, 1 << 14, 1 << 14, DefaultFlightCap},
		{1000, 300, 1024, 1024},
		{-1, 4096, 4096, 0},
	} {
		f := NewFlight(c.capacity, c.spans)
		if f.Cap() != c.ring || f.DumpCap() != c.dump {
			t.Errorf("NewFlight(%d, %d): Cap()=%d DumpCap()=%d, want %d/%d",
				c.capacity, c.spans, f.Cap(), f.DumpCap(), c.ring, c.dump)
		}
	}
}

// A ring deepened for the timeline dumps the same tail as a flight-sized
// one, sequence numbers included.
func TestFlightDumpIgnoresTimelineDepth(t *testing.T) {
	dump := func(f *Flight) string {
		for i := 0; i < 40; i++ {
			f.Record(FlightRecord{At: int64(i), Kind: FlightExec, Sw: int16(i)})
		}
		var buf bytes.Buffer
		if err := f.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := dump(NewFlight(8, 0)), dump(NewFlight(8, 64)); a != b {
		t.Fatalf("deep ring dumps\n%s\nflight-sized ring dumps\n%s", b, a)
	}
}

func TestSpanLane(t *testing.T) {
	if got := SpanLane(uint64(3)<<32 | 17); got != 2 {
		t.Fatalf("SpanLane(lane-2 id) = %d, want 2", got)
	}
	if got := SpanLane(0); got != -1 {
		t.Fatalf("SpanLane(0) = %d, want -1 (synthetic root parent)", got)
	}
}

// AppendSpans reads the traced exec records claimed after the cursor,
// as span views with the ids reassembled from their split words.
func TestFlightAppendSpans(t *testing.T) {
	f := NewFlight(-1, 8)
	f.Record(FlightRecord{At: 1, Kind: FlightExec, Sw: 1}) // untraced
	f.Record(FlightRecord{At: 2, Kind: FlightExec, Sw: 2, Lane: 2, Trace: 7, SpanSeq: 5, Emits: 3, Matched: true})
	f.Record(FlightRecord{At: 3, Kind: FlightSend, Sw: 2, Lane: 2, Trace: 7})
	f.Record(FlightRecord{At: 4, Kind: FlightExec, Sw: 3, Lane: 0, Trace: 7, SpanSeq: 1, ParentLane: 3, ParentSeq: 5})
	got := f.AppendSpans(nil, 0)
	want := []SpanRecord{
		{Span: 3<<32 | 5, At: 2, Trace: 7, Sw: 2, Lane: 2, Emits: 3, Matched: true},
		{Span: 1<<32 | 1, Parent: 3<<32 | 5, At: 4, Trace: 7, Sw: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendSpans(0) = %+v, want %+v", got, want)
	}
	if got := f.AppendSpans(nil, 2); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("AppendSpans(2) = %+v, want the last span only", got)
	}
	for i := 0; i < 8; i++ {
		f.Record(FlightRecord{Kind: FlightExec})
	}
	if got := f.AppendSpans(nil, 0); len(got) != 0 {
		t.Fatalf("evicted spans still read: %+v", got)
	}
}
