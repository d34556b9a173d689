package monitor

import "testing"

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{"failure-burst: rate(savanna.runs_failed_total) > 0.05",
			Rule{Name: "failure-burst", Metric: "savanna.runs_failed_total", Predicate: Above, Threshold: 0.05, Rate: true}},
		{"queue-depth: hpcsim.jobs_queued > 100",
			Rule{Name: "queue-depth", Metric: "hpcsim.jobs_queued", Predicate: Above, Threshold: 100}},
		{"starved: rate(savanna.runs_executed_total) < 0.001",
			Rule{Name: "starved", Metric: "savanna.runs_executed_total", Predicate: Below, Threshold: 0.001, Rate: true}},
		{"spaced :  cas.action_hits_total  <  2 ",
			Rule{Name: "spaced", Metric: "cas.action_hits_total", Predicate: Below, Threshold: 2}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, in := range []string{
		"no comparator here",
		"name: metric >= 5", // >= parses as "> =5" → bad threshold
		"name: rate(metric > 5",
		": metric > 5",
		"name: > 5",
		"name: metric > banana",
		"name: metric > NaN",    // non-finite threshold
		"name: metric < +Inf",   // non-finite threshold
		"name: metric > -Inf",   // non-finite threshold
		"name: some metric > 5", // whitespace inside the metric name
		"name: rate (m) > 5",    // space between rate and ( → metric "rate (m"... rejected
		"name: a\tmetric > 5",   // tab inside the metric name
	} {
		if r, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) accepted: %+v", in, r)
		}
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	for _, r := range []Rule{
		{Name: "a", Metric: "m.x", Predicate: Above, Threshold: 0.5, Rate: true},
		{Name: "b", Metric: "m.y", Predicate: Below, Threshold: 100},
	} {
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("reparsing %q: %v", r.String(), err)
		}
		if back != r {
			t.Errorf("round trip %q → %+v, want %+v", r.String(), back, r)
		}
	}
}
