package history

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fairflow/internal/telemetry"
)

// fixedClock returns a settable virtual clock for deterministic sampling.
type fixedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fixedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestRingWraparoundDeterministic(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := reg.Counter("test.total")
	r := New(reg, 4)
	clk := &fixedClock{now: time.Unix(1000, 0)}
	r.SetClock(clk)
	for i := 0; i < 6; i++ {
		n.Inc()
		r.Sample()
		clk.advance(time.Second)
	}
	if r.Taken() != 6 {
		t.Fatalf("taken = %d, want 6", r.Taken())
	}
	if len(r.Samples()) != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", len(r.Samples()))
	}
	samples := r.Samples()
	if len(samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(samples))
	}
	// Oldest-first across the wrap: the two earliest samples fell off, the
	// survivors carry counter values 3..6 in order.
	for i, s := range samples {
		want := float64(i + 3)
		if got := MetricValue(s.Metrics, "test.total"); got != want {
			t.Errorf("sample %d value = %v, want %v", i, got, want)
		}
		if i > 0 && !samples[i].Time.After(samples[i-1].Time) {
			t.Errorf("sample %d time %v not after sample %d time %v",
				i, samples[i].Time, i-1, samples[i-1].Time)
		}
	}
}

// TestRingWraparoundConcurrent hammers a tiny ring from many goroutines:
// the ring must keep exact bookkeeping (every sample counted, capacity
// respected) and hand back a chronologically ordered view. Run under -race
// this also pins the locking discipline around Sample/Samples/Taken.
func TestRingWraparoundConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := reg.Counter("test.total")
	r := New(reg, 8)
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n.Inc()
				r.Sample()
				if i%5 == 0 {
					_ = r.Samples()
					_, _ = r.RateOver("test.total", time.Minute)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Taken(); got != goroutines*perG {
		t.Fatalf("taken = %d, want %d", got, goroutines*perG)
	}
	if len(r.Samples()) != 8 {
		t.Fatalf("len = %d, want 8", len(r.Samples()))
	}
	samples := r.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].Time.Before(samples[i-1].Time) {
			t.Fatalf("samples out of order at %d: %v before %v",
				i, samples[i].Time, samples[i-1].Time)
		}
	}
}

func TestRateOver(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := reg.Counter("runs.total")
	r := New(reg, 16)
	clk := &fixedClock{now: time.Unix(2000, 0)}
	r.SetClock(clk)

	if _, ok := r.RateOver("runs.total", 30*time.Second); ok {
		t.Fatal("rate computable with no samples")
	}
	r.Sample() // t=0, value 0
	if _, ok := r.RateOver("runs.total", 30*time.Second); ok {
		t.Fatal("rate computable with one sample")
	}

	clk.advance(10 * time.Second)
	n.Add(50)
	r.Sample() // t=10, value 50
	if rate, ok := r.RateOver("runs.total", 30*time.Second); !ok || rate != 5 {
		t.Fatalf("rate = %v, %v; want 5/s over the full spread", rate, ok)
	}

	clk.advance(10 * time.Second)
	n.Add(20)
	r.Sample() // t=20, value 70
	// A 10 s window only reaches back to the t=10 sample: (70-50)/10.
	if rate, ok := r.RateOver("runs.total", 10*time.Second); !ok || rate != 2 {
		t.Fatalf("windowed rate = %v, %v; want 2/s", rate, ok)
	}
	// A huge window uses the oldest retained sample: (70-0)/20.
	if rate, ok := r.RateOver("runs.total", time.Hour); !ok || rate != 3.5 {
		t.Fatalf("wide rate = %v, %v; want 3.5/s", rate, ok)
	}
	// Unknown metrics read as zero throughout → zero rate, still computable.
	if rate, ok := r.RateOver("no.such.metric", time.Hour); !ok || rate != 0 {
		t.Fatalf("absent metric rate = %v, %v; want 0, true", rate, ok)
	}
}

func TestRateOverCounterReset(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("depth")
	r := New(reg, 8)
	clk := &fixedClock{now: time.Unix(3000, 0)}
	r.SetClock(clk)
	g.Set(100)
	r.Sample()
	clk.advance(10 * time.Second)
	g.Set(10) // value moved backwards, as after a counter reset
	r.Sample()
	if rate, ok := r.RateOver("depth", time.Minute); !ok || rate != 0 {
		t.Fatalf("reset rate = %v, %v; want 0 (never negative), true", rate, ok)
	}
}

func TestNilRingIsInert(t *testing.T) {
	var r *Ring
	r.Sample()
	r.SetClock(telemetry.ClockFunc(time.Now))
	stop := r.Start(time.Second)
	stop()
	if r.Taken() != 0 || r.Samples() != nil {
		t.Fatal("nil ring reported state")
	}
	if _, ok := r.RateOver("m", time.Second); ok {
		t.Fatal("nil ring computed a rate")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(reg, 8)
	stop := r.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for r.Taken() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.Taken() == 0 {
		t.Fatal("wall-clock sampler took no samples")
	}
	stop()
	stop() // second stop must not panic
}

func TestSeriesHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := reg.Counter("runs.total")
	r := New(reg, 8)
	clk := &fixedClock{now: time.Unix(5000, 0)}
	r.SetClock(clk)

	// Empty ring serves an empty list, not an error.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/series.json", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var empty []Sample
	if err := json.Unmarshal(rec.Body.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("empty ring body = %q (err %v)", rec.Body.String(), err)
	}

	n.Add(3)
	r.Sample()
	clk.advance(time.Second)
	n.Add(4)
	r.Sample()

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/series.json?metric=runs.total", nil))
	var points []struct {
		Time  time.Time `json:"time"`
		Value float64   `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Value != 3 || points[1].Value != 7 {
		t.Fatalf("points = %+v, want values 3 then 7", points)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/series.json", nil))
	var full []Sample
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 {
		t.Fatalf("full dump = %d samples, want 2", len(full))
	}
}
