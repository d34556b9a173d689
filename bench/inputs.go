package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fairflow/internal/cheetah"
)

// outputSize is the size of the file a memo workload's payload writes.
const outputSize = 4096

// Heavy-tail payload shape (Exp D): log-normal, capped.
const (
	heavyMedian = 200e3 // ns
	heavySigma  = 1.0
	heavyCapNs  = 5e6
)

// Inputs is everything a campaign receives, generated from the seed alone:
// the engines see only these values, never the seed.
type Inputs struct {
	Campaign string
	// Manifest is set for workloads that materialise a campaign directory;
	// Runs is its run list (or a hand-built list, for remote_bare).
	Manifest *cheetah.Manifest
	Runs     []cheetah.Run
	// PayloadNs is the CPU-spin length per run index (nil = null payload).
	PayloadNs []int64
	// outputBase is the seeded 4 KiB block every memo output starts from.
	outputBase []byte
}

// GenerateInputs builds one workload's inputs. The same (workload, n, seed)
// always yields byte-identical inputs.
func GenerateInputs(workload string, n int, seed int64) (*Inputs, error) {
	in := &Inputs{Campaign: "bench-" + workload}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case RemoteBare:
		// Exactly the run shape BenchmarkRemoteCampaignScaling builds.
		in.Runs = make([]cheetah.Run, n)
		for i := range in.Runs {
			in.Runs[i] = cheetah.Run{
				ID:     fmt.Sprintf("run-%05d", i),
				Index:  i,
				Params: map[string]string{"i": strconv.Itoa(i)},
			}
		}
	default:
		values := make([]string, n)
		for i := range values {
			values[i] = strconv.Itoa(i)
		}
		m, err := cheetah.BuildManifest(cheetah.Campaign{
			Name: in.Campaign, App: "bench", Account: "bench",
			Groups: []cheetah.SweepGroup{{
				Name: "g", Nodes: 1, WalltimeMinutes: 1,
				Sweeps: []cheetah.Sweep{{
					Name:       "s",
					Parameters: []cheetah.Parameter{{Name: "i", Layer: cheetah.Application, Values: values}},
				}},
			}},
		})
		if err != nil {
			return nil, err
		}
		in.Manifest, in.Runs = m, m.Runs
	}
	switch workload {
	case RemoteHeavy:
		in.PayloadNs = heavyTail(n, rng)
	case MemoCold, MemoWarm:
		in.outputBase = make([]byte, outputSize)
		rng.Read(in.outputBase)
	}
	return in, nil
}

// heavyTail draws n payload lengths from the capped log-normal as a
// stratified sample: one draw from each of n equal-probability strata,
// shuffled. The seed still decides every value and the order, but the sum
// barely moves between seeds — a plain sample of a σ=1 log-normal would by
// itself spread runs/s by ~2.5% across seeds, most of the metric's bound.
func heavyTail(n int, rng *rand.Rand) []int64 {
	out := make([]int64, n)
	for i, k := range rng.Perm(n) {
		p := (float64(k) + rng.Float64()) / float64(n)
		ns := heavyMedian * math.Exp(heavySigma*math.Sqrt2*math.Erfinv(2*p-1))
		out[i] = int64(math.Min(ns, heavyCapNs))
	}
	return out
}

// Output returns run i's seeded 4 KiB output: the seeded base block with
// the run index stamped in, so every run's content (and digest) is distinct.
func (in *Inputs) Output(i int) []byte {
	b := append([]byte(nil), in.outputBase...)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

// Digest fingerprints every generated value — what the same-seed test
// compares.
func (in *Inputs) Digest() string {
	h := sha256.New()
	for _, r := range in.Runs {
		fmt.Fprintf(h, "%s|%d|%v\n", r.ID, r.Index, r.Params)
	}
	for _, ns := range in.PayloadNs {
		fmt.Fprintf(h, "%d\n", ns)
	}
	if in.outputBase != nil {
		for i := range in.Runs {
			h.Write(in.Output(i))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
