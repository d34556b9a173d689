package expt

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate child seed at index %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(7, 0) == SplitSeed(8, 0) {
		t.Fatal("different parents produced identical children")
	}
}

func TestSplitSeedDeterministic(t *testing.T) {
	if SplitSeed(123, 45) != SplitSeed(123, 45) {
		t.Fatal("SplitSeed is not a pure function")
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := LogNormal(rng, 0, 1); v <= 0 {
			t.Fatalf("log-normal draw %v not positive", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := NewRNG(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = LogNormal(rng, 2.0, 0.5)
	}
	s := Summarize(xs)
	want := math.Exp(2.0)
	if math.Abs(s.Median-want)/want > 0.05 {
		t.Fatalf("log-normal median %.3f, want ≈ %.3f", s.Median, want)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRNG(4)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = Exponential(rng, 10)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.3 {
		t.Fatalf("exponential mean %.3f, want ≈ 10", m)
	}
}

func TestClampedNormalRespectsBounds(t *testing.T) {
	rng := NewRNG(5)
	for i := 0; i < 2000; i++ {
		v := ClampedNormal(rng, 0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("clamped draw %v escaped [-1,1]", v)
		}
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev %v, want sqrt(2.5)", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(sorted, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("r = %v, want 0 for zero-variance sample", r)
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x,y", `q"u`)
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2.5 |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y","q""u"`) {
		t.Fatalf("bad csv quoting:\n%s", csv)
	}
}

func TestFigureMarkdownUnionsX(t *testing.T) {
	f := NewFigure("Fig. T", "test", "x", "y")
	s1 := f.AddSeries("one")
	s1.Add(1, 10)
	s1.Add(2, 20)
	s2 := f.AddSeries("two")
	s2.Add(2, 200)
	s2.Add(3, 300)
	md := f.Markdown()
	for _, want := range []string{"Fig. T", "one", "two", "| 1 | 10 |  |", "| 3 |  | 300 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestASCIIChartRendersAllSeries(t *testing.T) {
	f := NewFigure("Fig. T", "chart test", "time", "value")
	a := f.AddSeries("rising")
	b := f.AddSeries("falling")
	for i := 0; i < 10; i++ {
		a.Add(float64(i), float64(i))
		b.Add(float64(i), float64(9-i))
	}
	out := f.ASCIIChart(40, 10)
	for _, want := range []string{"Fig. T", "rising", "falling", "*", "o", "x: time, y: value"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestASCIIChartDegenerate(t *testing.T) {
	empty := NewFigure("F", "empty", "x", "y")
	if !strings.Contains(empty.ASCIIChart(30, 8), "no data") {
		t.Fatal("empty chart not flagged")
	}
	flat := NewFigure("F", "flat", "x", "y")
	s := flat.AddSeries("s")
	s.Add(1, 5)
	s.Add(2, 5) // zero y-range must not divide by zero
	if out := flat.ASCIIChart(30, 8); !strings.Contains(out, "*") {
		t.Fatalf("flat series not plotted:\n%s", out)
	}
	single := NewFigure("F", "single", "x", "y")
	p := single.AddSeries("p")
	p.Add(3, 3) // single point, zero ranges in both axes
	if out := single.ASCIIChart(30, 8); !strings.Contains(out, "*") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}
