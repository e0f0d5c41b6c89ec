package telemetry

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestBucketRoundTrip pins the log-linear scheme: every value lands in a
// bucket whose bounds contain it, bounds are monotone, and the relative
// quantization error stays within one sub-bucket (12.5%).
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, 1<<62 - 1}
	for _, v := range values {
		b := bucketOf(v)
		up := bucketUpper(b)
		if v > up {
			t.Errorf("value %d above its bucket upper %d (bucket %d)", v, up, b)
		}
		if b > 0 {
			prevUp := bucketUpper(b - 1)
			if v <= prevUp {
				t.Errorf("value %d should be in bucket %d (upper %d)", v, b-1, prevUp)
			}
		}
		if v >= subBuckets {
			if err := float64(up-v) / float64(v); err > 0.125 {
				t.Errorf("value %d: relative error %.3f > 0.125", v, err)
			}
		}
	}
	if bucketOf(-5) != 0 {
		t.Error("negative values must clamp to bucket 0")
	}
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket bounds not monotone at %d", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h LocalHist
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Max != 1000 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	// Quantiles are upper bounds with <=12.5% error.
	for _, tc := range []struct {
		q     float64
		exact int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := s.Quantile(tc.q)
		if got < tc.exact || float64(got) > float64(tc.exact)*1.15 {
			t.Errorf("q%.2f: got %d, want within [%d, %.0f]", tc.q, got, tc.exact, float64(tc.exact)*1.15)
		}
	}
	if mean := s.Mean(); mean < 500 || mean > 501 {
		t.Errorf("mean %.2f, want 500.5", mean)
	}
}

// TestLocalHistFlush pins the staging flush a Run ends with: Merge adds
// the staged observations to the totals, Reset clears the staging, and
// the next flush accumulates on top.
func TestLocalHistFlush(t *testing.T) {
	var l, h LocalHist
	for v := int64(0); v < 100; v++ {
		l.Observe(v)
	}
	if l.count != 100 {
		t.Fatal("local count")
	}
	h.Merge(&l)
	if l.count != 100 {
		t.Fatal("Merge must leave its source as it was")
	}
	l.Reset()
	if l.count != 0 || l.Snapshot().Buckets != nil {
		t.Fatal("Reset must clear the local histogram")
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 99 || s.Sum != 4950 {
		t.Fatalf("flushed snapshot %+v", s)
	}
	// Merging an empty local must be a no-op.
	h.Merge(&l)
	if h.count != 100 {
		t.Fatal("empty merge changed the histogram")
	}
	// Flushing more data accumulates.
	l.Observe(1 << 30)
	h.Merge(&l)
	if got := h.Snapshot(); got.Count != 101 || got.Max != 1<<30 || len(got.Buckets) != len(s.Buckets)+1 {
		t.Fatalf("second flush %+v", got)
	}
}

// TestHistogramConcurrent folds staging from concurrent goroutines (the
// sweep-worker case: many networks ending Runs at once) into the process
// sum: no observation may be lost.
func TestHistogramConcurrent(t *testing.T) {
	count := func() int64 { return ProcessSnap().RunSimNs.Count }
	before := count()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var c Counters
			for i := 0; i < perWorker; i++ {
				c.RunSimNs.Observe(rng.Int63n(1 << 20))
				if i%1000 == 999 {
					Fold(&c)
					c.Reset()
				}
			}
			Fold(&c)
		}(int64(w))
	}
	wg.Wait()
	if got, want := count()-before, int64(workers*perWorker); got != want {
		t.Fatalf("lost observations: got %d want %d", got, want)
	}
}
