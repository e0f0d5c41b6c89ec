package telemetry

import "math/bits"

// Log-linear bucketing: values 0..7 get exact buckets; every octave above
// is split into 8 linear sub-buckets, so the relative quantization error
// is bounded by 12.5% across the whole int64 range. The scheme is the
// fixed-layout cousin of HdrHistogram — no configuration, no allocation,
// bucket index from two shifts and a bits.Len.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers non-negative int64: octaves 3..62 plus the exact
	// low range.
	numBuckets = (64 - subBits) * subBuckets
)

// bucketOf maps a non-negative value to its bucket index. Negative
// values clamp to bucket 0 (they only arise from clock retrogression).
func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int(v>>(exp-subBits)) & (subBuckets - 1)
	return (exp-subBits+1)*subBuckets + sub
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBits - 1
	sub := int64(i & (subBuckets - 1))
	lower := int64(1)<<exp + sub<<(exp-subBits)
	return lower + int64(1)<<(exp-subBits) - 1
}

// BucketCount is one non-empty bucket of a snapshot.
type BucketCount struct {
	// Upper is the inclusive upper bound of the bucket.
	Upper int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) with
// the bucketing's 12.5% relative error; 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count-1)) + 1
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Upper
		}
	}
	return s.Max
}

// LocalHist is the plain-integer histogram every counter set carries:
// no atomics, so it belongs to one goroutine at a time — the lane staging
// it, or whoever holds the mutex of the totals it sits in. Merge and
// Reset walk only the touched bucket span, so folding a typical
// traversal's staging is a few dozen adds.
type LocalHist struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     int64
	max     int64
	lo, hi  int
}

// Observe records one value.
func (l *LocalHist) Observe(v int64) {
	b := bucketOf(v)
	if l.count == 0 {
		l.lo, l.hi = b, b
	} else {
		if b < l.lo {
			l.lo = b
		}
		if b > l.hi {
			l.hi = b
		}
	}
	l.buckets[b]++
	l.count++
	l.sum += v
	if v > l.max {
		l.max = v
	}
}

// Merge adds o's observations to l; o is left as it was.
func (l *LocalHist) Merge(o *LocalHist) {
	if o.count == 0 {
		return
	}
	if l.count == 0 {
		l.lo, l.hi = o.lo, o.hi
	} else {
		l.lo, l.hi = min(l.lo, o.lo), max(l.hi, o.hi)
	}
	for i := o.lo; i <= o.hi; i++ {
		l.buckets[i] += o.buckets[i]
	}
	l.count += o.count
	l.sum += o.sum
	l.max = max(l.max, o.max)
}

// Reset clears l.
func (l *LocalHist) Reset() {
	if l.count == 0 {
		return
	}
	clear(l.buckets[l.lo : l.hi+1])
	l.count, l.sum, l.max = 0, 0, 0
	l.lo, l.hi = 0, 0
}

// Snapshot copies the non-empty buckets.
func (l *LocalHist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: int64(l.count), Sum: l.sum, Max: l.max}
	if l.count == 0 {
		return s
	}
	for i := l.lo; i <= l.hi; i++ {
		if c := l.buckets[i]; c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Upper: bucketUpper(i), Count: int64(c)})
		}
	}
	return s
}
