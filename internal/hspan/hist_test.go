package hspan

import "testing"

// TestHistBounds pins the layout: powers of two from 1µs, 28 finite
// bounds, strictly doubling.
func TestHistBounds(t *testing.T) {
	b := HistBounds()
	if len(b) != histBuckets {
		t.Fatalf("len(bounds) = %d, want %d", len(b), histBuckets)
	}
	if b[0] != 1000 {
		t.Fatalf("bounds[0] = %d, want 1000 (1µs)", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bounds[%d] = %d, want %d (doubling)", i, b[i], 2*b[i-1])
		}
	}
	// Top finite bound covers ~134s — any realistic job latency.
	if top := b[len(b)-1]; top < 100_000_000_000 {
		t.Fatalf("top bound %dns does not cover realistic job wall times", top)
	}
}

// TestBucketIndex maps edge observations onto buckets: values exactly
// on a bound stay in that bucket (le semantics), one past moves up.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {999, 0}, {1000, 0},
		{1001, 1}, {2000, 1}, {2001, 2}, {4000, 2},
		{1000 << 27, histBuckets - 1},
		{(1000 << 27) + 1, histBuckets},
		{1 << 62, histBuckets},
	}
	for _, c := range cases {
		ns := c.ns
		if ns < 0 {
			ns = 0 // Observe clamps; bucketIndex callers never pass negatives
		}
		if got := bucketIndex(ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestObserveCumulative: BucketCounts is cumulative and consistent
// with Count, and Sum tracks the raw values.
func TestObserveCumulative(t *testing.T) {
	var h Histogram
	h.Observe(500)  // bucket 0
	h.Observe(1500) // bucket 1
	h.Observe(3000) // bucket 2
	h.Observe(3000) // bucket 2
	h.Observe(-1)   // clamps to 0, bucket 0
	bc := h.BucketCounts()
	if len(bc) != histBuckets+1 {
		t.Fatalf("len(BucketCounts) = %d, want %d", len(bc), histBuckets+1)
	}
	if bc[0] != 2 || bc[1] != 3 || bc[2] != 5 {
		t.Fatalf("cumulative counts = %d,%d,%d want 2,3,5", bc[0], bc[1], bc[2])
	}
	if last := bc[len(bc)-1]; last != h.Count() {
		t.Fatalf("+Inf cumulative %d != Count %d", last, h.Count())
	}
	if h.Sum() != 500+1500+3000+3000 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	for i := 1; i < len(bc); i++ {
		if bc[i] < bc[i-1] {
			t.Fatalf("BucketCounts not monotonic at %d", i)
		}
	}
}

// TestQuantile: the estimate is the upper bound of the rank's bucket.
func TestQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fast observations (~2µs bucket), 10 slow (~1ms bucket).
	for i := 0; i < 90; i++ {
		h.Observe(1500)
	}
	for i := 0; i < 10; i++ {
		h.Observe(600_000)
	}
	if q := h.Quantile(0.50); q != 2000 {
		t.Fatalf("p50 = %d, want 2000 (2µs bucket bound)", q)
	}
	// 600µs lands in the bucket with bound 1000<<10 ns = 1.024ms.
	if q := h.Quantile(0.99); q != 1000<<10 {
		t.Fatalf("p99 = %d, want %d", q, 1000<<10)
	}
	if q := h.Quantile(1.0); q != 1000<<10 {
		t.Fatalf("p100 = %d, want %d", q, 1000<<10)
	}
}
