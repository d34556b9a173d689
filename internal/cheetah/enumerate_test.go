package cheetah

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// referencePoints is Sweep.Points written the plain way: the cross-product
// built parameter by parameter, each point copied from its prefix.
func referencePoints(s Sweep) []map[string]string {
	if s.mode() == Zip {
		n := len(s.Parameters[0].Values)
		out := make([]map[string]string, n)
		for i := 0; i < n; i++ {
			point := make(map[string]string, len(s.Parameters))
			for _, p := range s.Parameters {
				point[p.Name] = p.Values[i]
			}
			out[i] = point
		}
		return out
	}
	out := []map[string]string{{}}
	for _, p := range s.Parameters {
		var next []map[string]string
		for _, base := range out {
			for _, v := range p.Values {
				point := make(map[string]string, len(base)+1)
				for k, bv := range base {
					point[k] = bv
				}
				point[p.Name] = v
				next = append(next, point)
			}
		}
		out = next
	}
	return out
}

// referenceEnumerateRuns is Campaign.EnumerateRuns written the plain way,
// with fmt.Sprintf building each ID.
func referenceEnumerateRuns(c Campaign) []Run {
	var out []Run
	for _, g := range c.Groups {
		idx := 0
		for _, s := range g.Sweeps {
			for _, point := range referencePoints(s) {
				out = append(out, Run{
					ID:     fmt.Sprintf("%s/%s/run-%05d", g.Name, s.Name, idx),
					Group:  g.Name,
					Sweep:  s.Name,
					Index:  idx,
					Params: point,
				})
				idx++
			}
		}
	}
	return out
}

// numbered is n values, prefix followed by 0 to n-1.
func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// oneGroup is a one-group campaign of the given sweeps.
func oneGroup(sweeps ...Sweep) Campaign {
	return Campaign{Name: "c", App: "app", Groups: []SweepGroup{{Name: "g", Nodes: 1, WalltimeMinutes: 1, Sweeps: sweeps}}}
}

// TestEnumerateRunsMatchesReference: the same runs, IDs, indices and points,
// in the same order, as the plain enumeration gives, for cross sweeps of one
// to three parameters, a zip sweep, several groups of several sweeps, and a
// group whose indices pass five digits.
func TestEnumerateRunsMatchesReference(t *testing.T) {
	cross := func(name string, sizes ...int) Sweep {
		s := Sweep{Name: name}
		for i, n := range sizes {
			s.Parameters = append(s.Parameters, Parameter{Name: fmt.Sprintf("p%d", i), Values: numbered(fmt.Sprintf("v%d.", i), n)})
		}
		return s
	}
	twoByTwo := Campaign{Name: "c", App: "app"}
	for g := 0; g < 2; g++ {
		group := SweepGroup{Name: fmt.Sprintf("g%d", g), Nodes: 1, WalltimeMinutes: 1}
		for s := 0; s < 2; s++ {
			group.Sweeps = append(group.Sweeps, cross(fmt.Sprintf("s%d", s), 2+g, 3+s))
		}
		twoByTwo.Groups = append(twoByTwo.Groups, group)
	}
	cases := map[string]Campaign{
		"cross 1":     oneGroup(cross("s", 7)),
		"cross 2":     oneGroup(cross("s", 3, 5)),
		"cross 3":     oneGroup(cross("s", 2, 3, 4)),
		"zip":         oneGroup(Sweep{Name: "z", Mode: Zip, Parameters: []Parameter{{Name: "a", Values: numbered("a", 4)}, {Name: "b", Values: numbered("b", 4)}}}),
		"2x2":         twoByTwo,
		"past 99,999": oneGroup(cross("big", 100_000), cross("more", 2, 2)),
	}
	for name, c := range cases {
		got, err := c.EnumerateRuns()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := referenceEnumerateRuns(c)
		if len(got) != len(want) {
			t.Fatalf("%s: %d runs, reference has %d", name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: run %d is %+v, reference has %+v", name, i, got[i], want[i])
			}
		}
		for _, g := range c.Groups {
			for _, s := range g.Sweeps {
				if got, want := s.Points(), referencePoints(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: sweep %s/%s points differ from the reference", name, g.Name, s.Name)
				}
			}
		}
	}
	if runs, _ := cases["past 99,999"].EnumerateRuns(); runs[len(runs)-1].ID != "g/more/run-100003" {
		t.Fatalf("last ID %q, want g/more/run-100003", runs[len(runs)-1].ID)
	}
}
