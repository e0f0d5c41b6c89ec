package openflow

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanBlock is how many consecutive switches an EachSwitch goroutine claims
// at a time.
const fanBlock = 32

// EachSwitch calls do(i) exactly once for every i in [0, n), spread over
// min(GOMAXPROCS, ⌈n/fanBlock⌉) goroutines, the caller's among them, and
// returns when every call has returned; no goroutine outlives it. Each
// goroutine calls worker once for its do, so a worker's scratch needs no
// lock, then pulls blocks of indices from a shared counter: per-switch
// cost is uneven over the ID range (ISP hubs, fat-tree cores). With one
// goroutine everything runs inline, in index order. A panic stops the
// other goroutines at their next block and is re-raised on the caller once
// they have finished. Callers keep their output independent of the
// goroutine count by giving each index its own result slot and assembling
// the slots in index order.
func EachSwitch(n int, worker func() (do func(i int))) {
	procs := min(runtime.GOMAXPROCS(0), (n+fanBlock-1)/fanBlock)
	if procs <= 1 {
		do := worker()
		for i := range n {
			do(i)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		first  sync.Once
		failed bool
		cause  any
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				first.Do(func() { failed, cause = true, r })
			}
		}()
		do := worker()
		for lo := int(next.Add(fanBlock)) - fanBlock; lo < n; lo = int(next.Add(fanBlock)) - fanBlock {
			for i := lo; i < min(lo+fanBlock, n); i++ {
				do(i)
			}
		}
	}
	wg.Add(procs - 1)
	for range procs - 1 {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if failed {
		panic(cause)
	}
}
