package openflow

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn under GOMAXPROCS = procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// settledGoroutines waits for goroutines that have finished their work
// but not yet exited to disappear, and returns the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestEachSwitchVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, fanBlock - 1, fanBlock, fanBlock + 1, 10*fanBlock + 3} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				withProcs(procs, func() {
					before := runtime.NumGoroutine()
					visits := make([]atomic.Int32, n)
					var workers atomic.Int32
					EachSwitch(n, func() func(int) {
						workers.Add(1)
						calls := 0 // goroutine-local: a shared worker would race here
						return func(i int) {
							calls++
							visits[i].Add(1)
						}
					})
					for i := range visits {
						if v := visits[i].Load(); v != 1 {
							t.Fatalf("index %d visited %d times", i, v)
						}
					}
					want := int32(min(procs, (n+fanBlock-1)/fanBlock))
					if want == 0 {
						want = 1 // inline: the caller is the one worker
					}
					if got := workers.Load(); got != want {
						t.Errorf("worker() called %d times, want one per goroutine = %d", got, want)
					}
					if got := settledGoroutines(before); got != before {
						t.Errorf("goroutines: %d before, %d after", before, got)
					}
				})
			})
		}
	}
}

// TestEachSwitchInlineOrder: with one goroutine the indices run on the
// caller, in order — what single-CPU runs and small networks see.
func TestEachSwitchInlineOrder(t *testing.T) {
	withProcs(4, func() {
		var order []int
		EachSwitch(fanBlock, func() func(int) {
			return func(i int) { order = append(order, i) }
		})
		for i, v := range order {
			if v != i {
				t.Fatalf("inline order %v", order)
			}
		}
	})
}

func TestEachSwitchReraisesPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(procs, func() {
				before := runtime.NumGoroutine()
				n := 10*fanBlock + 3
				var got any
				func() {
					defer func() { got = recover() }()
					EachSwitch(n, func() func(int) {
						return func(i int) {
							if i == 5*fanBlock+7 {
								panic("boom")
							}
						}
					})
				}()
				if got != "boom" {
					t.Fatalf("recovered %v, want the worker's panic", got)
				}
				if after := settledGoroutines(before); after != before {
					t.Errorf("goroutines: %d before, %d after the panic", before, after)
				}
			})
		})
	}
}
