package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The record path is memory traffic, so the ring entry must stay within
// one cache line; growing it past 64 bytes is a performance regression
// the overhead benchmark would only catch later and noisily. It must
// also stay pointer-free: a pointer field would put GC write barriers on
// every record store and the whole ring on the garbage collector's scan
// list.
func TestFlightRecordFitsCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(FlightRecord{}); s > 64 {
		t.Fatalf("FlightRecord is %d bytes, must stay <= 64", s)
	}
	if typ := reflect.TypeOf(FlightRecord{}); typ.Comparable() == false || pointersIn(typ) {
		t.Fatal("FlightRecord must stay pointer-free")
	}
}

func pointersIn(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.String, reflect.Slice, reflect.Map, reflect.Chan, reflect.Interface, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if pointersIn(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return pointersIn(t.Elem())
	}
	return false
}

func TestFlightRingWraparound(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightRecord{At: int64(i), Kind: FlightExec, Sw: int16(i)})
	}
	if f.Total() != 10 || f.Len() != 4 {
		t.Fatalf("total=%d len=%d", f.Total(), f.Len())
	}
	if f.Seq() != 6 {
		t.Fatalf("oldest seq %d, want 6", f.Seq())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, r := range snap {
		if want := int16(6 + i); r.Sw != want {
			t.Fatalf("record %d: sw=%d want %d", i, r.Sw, want)
		}
	}
	f.Reset()
	if f.Len() != 0 || f.Total() != 0 {
		t.Fatal("reset")
	}
}

func TestFlightJSONL(t *testing.T) {
	f := NewFlight(8)
	idx := f.RegisterTagNames([3]string{"start", "cur", ""})
	r := FlightRecord{
		At: 1000, Kind: FlightExec, Sw: 3, Port: 2, Eth: 0x0901, Matched: true,
		NumTags: 2, NameIdx: idx,
		Tags: [3]uint32{1, 4},
	}
	f.SetCookie(&r, "snapshot")
	f.Record(r)
	f.Record(FlightRecord{At: 1001, Kind: FlightSend, Sw: 3, Port: 1, To: 4, ToPort: 2, Eth: 0x0901})
	f.Record(FlightRecord{At: 1002, Kind: FlightPacketIn, Sw: 0, Eth: 0x0901})

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
	if decoded[0]["kind"] != "exec" || decoded[1]["kind"] != "send" || decoded[2]["kind"] != "packet-in" {
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
	f := NewFlight(4)
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

// Cookies beyond the record's inline bytes (note text) round-trip via
// the overflow table, and repeats are deduplicated.
func TestFlightLongCookieInterning(t *testing.T) {
	f := NewFlight(4)
	long := "soak oracle divergence: snapshot root 5 saw 17 nodes"
	for i := 0; i < 3; i++ {
		var r FlightRecord
		f.SetCookie(&r, long)
		r.Kind = FlightNote
		f.Record(r)
	}
	if len(f.longCookies) != 1 {
		t.Fatalf("repeated long cookie interned %d times", len(f.longCookies))
	}
	snap := f.Snapshot()
	if got := f.CookieString(&snap[0]); got != long {
		t.Fatalf("long cookie resolved to %q", got)
	}
	var short FlightRecord
	f.SetCookie(&short, "svc8802/n7/done-p2")
	if got := f.CookieString(&short); got != "svc8802/n7/done-p2" {
		t.Fatalf("inline cookie resolved to %q", got)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), long) {
		t.Fatalf("dump lost the note text:\n%s", buf.String())
	}
}

func TestFlightTagNameInterning(t *testing.T) {
	f := NewFlight(4)
	a := f.RegisterTagNames([3]string{"start", "par", "cur"})
	b := f.RegisterTagNames([3]string{"x", "", ""})
	if again := f.RegisterTagNames([3]string{"start", "par", "cur"}); again != a {
		t.Fatalf("re-registration returned %d, want interned %d", again, a)
	}
	if a == b {
		t.Fatal("distinct name sets interned to the same index")
	}
	if got := f.TagNames(b); got[0] != "x" {
		t.Fatalf("TagNames(%d) = %v", b, got)
	}
	if got := f.TagNames(200); got != ([3]string{}) {
		t.Fatalf("unregistered index resolved to %v", got)
	}
}

func TestFlightKindString(t *testing.T) {
	for k, want := range map[FlightKind]string{
		FlightExec: "exec", FlightSend: "send", FlightPacketIn: "packet-in", FlightSelf: "self", FlightNote: "note",
	} {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}
