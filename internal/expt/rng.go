// Package expt provides shared experiment-harness utilities: seeded random
// number helpers, result tables and series, and emitters that render results
// as markdown or CSV. Every experiment in this repository is deterministic
// given its seed; the helpers here are how that determinism is threaded
// through workload generators and simulators.
package expt

import (
	"math"
	"math/rand"
)

// NewRNG returns a rand.Rand seeded deterministically from seed. All
// experiment code receives its randomness through an explicit *rand.Rand so
// that runs are reproducible and independent streams can be split by seed.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitSeed derives a child seed from a parent seed and an index using a
// SplitMix64 step. Child streams are statistically independent of the parent
// and of each other, which lets a campaign hand each of thousands of runs its
// own reproducible stream.
func SplitSeed(parent int64, index int) int64 {
	z := uint64(parent) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// LogNormal draws from a log-normal distribution parameterised by the mean
// and standard deviation of the underlying normal. Heavy-tailed task
// runtimes — the straggler behaviour at the heart of the iRF-LOOP
// experiment — are modelled with this.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// Exponential draws from an exponential distribution with the given mean.
// Mean-time-to-failure sampling in the cluster simulator uses this.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// ClampedNormal draws from a normal distribution with the given mean and
// standard deviation, clamped to [lo, hi].
func ClampedNormal(rng *rand.Rand, mean, stddev, lo, hi float64) float64 {
	v := rng.NormFloat64()*stddev + mean
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
